package qubikos_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/qubikos"
	"repro/internal/router"
)

// corpusCase is one pinned instance recipe of the cut-chain corpus.
type corpusCase struct {
	name string
	dev  *arch.Device
	opts family.Options
}

// cutChainCorpus pins the instances the certificate is checked on:
//   - the certifications perfbench's verify-cert runs for input families 0
//     and 1 (perfbench/verify.go: a warm-up per device at n = 4, then 8
//     instances per device and n = 1..4);
//   - the Section IV-A default grid on Aspen-4 and the 3x3 grid at seed
//     1, 10 circuits per count, under the seed schedule the cases were
//     pinned with (Seed + n·100,000 + i);
//   - one PaperSuites(1, 1) suite per device (300 to 3,000 gates).
func cutChainCorpus() []corpusCase {
	var out []corpusCase
	capped := func(name string, dev *arch.Device, n int, seed int64) {
		out = append(out, corpusCase{name, dev, family.Options{
			Optimal: n, TargetTwoQubitGates: 30, MaxTwoQubitGates: 30, PreferHighDegree: true, Seed: seed,
		}})
	}
	small := []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3()}
	for fam := int64(0); fam < 2; fam++ {
		for _, dev := range small {
			capped(fmt.Sprintf("verify-cert/f%d/%s/warm-up", fam, dev.Name()), dev, 4, -1-fam)
			for n := 1; n <= 4; n++ {
				for i := 0; i < 8; i++ {
					capped(fmt.Sprintf("verify-cert/f%d/%s/n%d/i%d", fam, dev.Name(), n, i),
						dev, n, fam<<24+int64(n)*100_000+int64(i))
				}
			}
		}
	}
	cfg := harness.DefaultOptimalityConfig(10, 1)
	for _, dev := range small {
		for _, n := range cfg.SwapCounts {
			for i := 0; i < cfg.CircuitsPerCount; i++ {
				capped(fmt.Sprintf("iv-a/%s/n%d/i%d", dev.Name(), n, i), dev, n, cfg.Seed+int64(n)*100_000+int64(i))
			}
		}
	}
	for _, sc := range harness.PaperSuites(1, 1) {
		m := sc.Manifest()
		for _, ref := range m.InstanceRefs() {
			out = append(out, corpusCase{"paper/" + ref.Base, sc.Device, m.Options(ref.Optimal, ref.Index)})
		}
	}
	return out
}

// On every pinned instance the finder's chain has exactly the planted n
// cuts, agrees cut for cut with the slow reference finder, and passes the
// independent checker. On the small devices, full VF2 also finds no
// embedding of any window, so the degree test never certified an
// embeddable window there.
func TestCutChainPinnedCorpus(t *testing.T) {
	vf2 := map[string]bool{arch.RigettiAspen4().Name(): true, arch.Grid3x3().Name(): true}
	corpus := cutChainCorpus()
	if len(corpus) != 2*2*(1+4*8)+80+16 {
		t.Fatalf("corpus has %d instances", len(corpus))
	}
	for _, cc := range corpus {
		inst, err := family.Qubikos.Generate(cc.dev, cc.opts)
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		gc := cc.dev.Graph()
		cuts := qubikos.CutChain(inst.Circuit, gc)
		if len(cuts) != inst.Optimal {
			t.Errorf("%s: chain has %d cuts, planted optimum %d", cc.name, len(cuts), inst.Optimal)
			continue
		}
		if ref := refCutChain(inst.Circuit, gc); !slices.Equal(cuts, ref) {
			t.Errorf("%s: finder cuts %v, reference finder %v", cc.name, cuts, ref)
		}
		if err := checkCutChain(inst.Circuit, gc, cuts); err != nil {
			t.Errorf("%s: checker rejects the chain: %v", cc.name, err)
		}
		if vf2[cc.dev.Name()] {
			assertWindowsUnembeddable(t, cc.name, inst.Circuit, gc, cuts)
		}
	}
}

// assertWindowsUnembeddable runs exhaustive VF2 on every window of the
// chain: none may embed in the coupling graph, and none may exhaust the
// search budget.
func assertWindowsUnembeddable(t *testing.T, name string, c *circuit.Circuit, gc *graph.Graph, cuts []int) {
	t.Helper()
	windows, err := refWindows(c, cuts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, w := range windows {
		if _, ok, trunc := graph.SubgraphIsomorphism(c.InteractionGraphOf(w), gc, 2_000_000); ok || trunc {
			t.Errorf("%s: window %d: VF2 found an embedding (ok=%v trunc=%v); Lemma 1 violated", name, i, ok, trunc)
		}
	}
}

// Each chain window must be genuinely non-embeddable; the certificate is
// cross-checked against exhaustive VF2 on a small device.
func TestSectionNonEmbeddabilityVF2(t *testing.T) {
	b, err := qubikos.Generate(arch.RigettiAspen4(), qubikos.Options{NumSwaps: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	gc := b.Device.Graph()
	cuts := qubikos.CutChain(b.Circuit, gc)
	if len(cuts) != 3 {
		t.Fatalf("chain has %d cuts, want 3", len(cuts))
	}
	assertWindowsUnembeddable(t, "aspen4/n3", b.Circuit, gc, cuts)
}

// Renaming program qubits changes no dependency and no interaction graph
// up to isomorphism, so the chain keeps its cuts, and the renamed witness
// still routes the renamed circuit.
func TestCutChainInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 16; seed++ {
		dev := []*arch.Device{arch.RigettiAspen4(), arch.Grid3x3(), arch.GoogleSycamore54()}[seed%3]
		b, err := qubikos.Generate(dev, qubikos.Options{NumSwaps: 1 + int(seed)%5, TargetTwoQubitGates: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(b.Circuit.NumQubits)
		relabel := func(c *circuit.Circuit) *circuit.Circuit {
			out := c.Clone()
			for i := range out.Gates {
				g := &out.Gates[i]
				g.Q0 = perm[g.Q0]
				if g.TwoQubit() {
					g.Q1 = perm[g.Q1]
				}
			}
			return out
		}
		c := relabel(b.Circuit)
		want := qubikos.CutChain(b.Circuit, dev.Graph())
		if got := qubikos.CutChain(c, dev.Graph()); !slices.Equal(got, want) {
			t.Errorf("seed %d: relabeled chain %v, original %v", seed, got, want)
		}
		m := make(router.Mapping, len(b.InitialMapping))
		for q, p := range b.InitialMapping {
			m[perm[q]] = p
		}
		sol := &router.Result{InitialMapping: m, Transpiled: relabel(b.Solution.Transpiled), SwapCount: b.OptSwaps}
		if err := router.Validate(c, dev, sol); err != nil {
			t.Errorf("seed %d: relabeled witness invalid: %v", seed, err)
		}
	}
}
