package harness

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/suite"
)

// restamp overwrites one stored instance file and re-stamps the suite's
// checksum index, so the tampering passes the checksum check and only
// the certificate can catch it.
func restamp(t *testing.T, store *suite.Store, st *suite.Suite, name string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(store.InstanceDir(st.Hash), name), b, 0o644); err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(st.Dir, "checksums.json")
	raw, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	if err := json.Unmarshal(raw, &sums); err != nil {
		t.Fatal(err)
	}
	sums[name] = fmt.Sprintf("%x", sha256.Sum256(b))
	if raw, err = json.MarshalIndent(sums, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(index, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// verifySpans runs fn under a trace and returns the args of every
// "verify"/"instance" span it recorded.
func verifySpans(t *testing.T, fn func(ctx context.Context)) []map[string]any {
	t.Helper()
	tr := obs.New(64)
	fn(obs.NewContext(context.Background(), tr))
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "verify" && ev.Name == "instance" {
			out = append(out, ev.Args)
		}
	}
	return out
}

// Every certification records exactly one "verify"/"instance" span per
// instance with the same args for both families and both callers: the
// instance, device, optimum and outcome, plus the SAT counters on swap
// instances only.
func TestCertifyRecordsInstanceSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT certification in -short mode")
	}
	study := func(fam string, optima ...int) func(t *testing.T, ctx context.Context) {
		return func(t *testing.T, ctx context.Context) {
			cfg := DefaultOptimalityConfig(1, 5)
			cfg.Family, cfg.SwapCounts = fam, optima
			if _, err := RunOptimalityStudyCtx(ctx, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	certifyStored := func(cfg SuiteConfig) func(t *testing.T, ctx context.Context) {
		return func(t *testing.T, ctx context.Context) {
			store, st := ensureSuite(t, cfg)
			verdicts, err := CertifySuite(ctx, store, st, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range verdicts {
				if v != nil {
					t.Fatal(v)
				}
			}
		}
	}
	for _, tc := range []struct {
		name  string
		run   func(t *testing.T, ctx context.Context)
		spans int
		swaps bool
	}{
		{"study/qubikos", study("", 1, 2), 4, true},
		{"study/queko-depth", study("queko-depth", 2, 3), 4, false},
		{"suite/qubikos", certifyStored(tinyCfg()), 4, true},
		{"suite/queko-depth", certifyStored(smallDepthSuite()), 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spans := verifySpans(t, func(ctx context.Context) { tc.run(t, ctx) })
			if len(spans) != tc.spans {
				t.Fatalf("%d verify/instance spans, want %d", len(spans), tc.spans)
			}
			for _, args := range spans {
				if args["outcome"] != "ok" {
					t.Errorf("outcome %v, want ok: %v", args["outcome"], args)
				}
				for _, key := range []string{"instance", "device", "optimal"} {
					if args[key] == nil {
						t.Errorf("span lacks %s: %v", key, args)
					}
				}
				for _, key := range []string{"conflicts", "restarts", "learned"} {
					if (args[key] != nil) != tc.swaps {
						t.Errorf("span %s present=%v, want %v on a swaps=%v instance: %v",
							key, args[key] != nil, tc.swaps, tc.swaps, args)
					}
				}
			}
		})
	}
}

// A stored witness overwritten with a 0-SWAP circuit under a re-stamped
// checksum passes the checksum index, so only the family certificate
// catches it: that instance deviates, its span says so, and every other
// instance still certifies.
func TestCertifySuiteCatchesCorruptWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT certification in -short mode")
	}
	store, st := ensureSuite(t, tinyCfg())
	bad := st.Instances[len(st.Instances)-1].Base
	circ, err := os.ReadFile(filepath.Join(store.InstanceDir(st.Hash), bad+".qasm"))
	if err != nil {
		t.Fatal(err)
	}
	restamp(t, store, st, bad+".solution.qasm", circ)

	var verdicts []error
	spans := verifySpans(t, func(ctx context.Context) {
		if verdicts, err = CertifySuite(ctx, store, st, 2); err != nil {
			t.Fatal(err)
		}
	})
	if len(verdicts) != len(st.Instances) || len(spans) != len(st.Instances) {
		t.Fatalf("%d verdicts and %d spans for %d instances", len(verdicts), len(spans), len(st.Instances))
	}
	for i, v := range verdicts {
		base := st.Instances[i].Base
		switch {
		case base != bad && v != nil:
			t.Errorf("%s: %v", base, v)
		case base == bad && (v == nil || !strings.Contains(v.Error(), bad+": family: witness uses 0 SWAPs")):
			t.Errorf("corrupt witness verdict %v, want %q", v, bad+": family: witness uses 0 SWAPs")
		}
	}
	for _, args := range spans {
		want := "ok"
		if args["instance"] == bad {
			want = outcomeDeviation
		}
		if args["outcome"] != want {
			t.Errorf("%v: outcome %v, want %s", args["instance"], args["outcome"], want)
		}
	}
}

// An instance that fails to load after a clean checksum index aborts the
// run with that error and no verdicts.
func TestCertifySuiteLoadFailureAborts(t *testing.T) {
	store, st := ensureSuite(t, smallDepthSuite())
	restamp(t, store, st, st.Instances[0].Base+".json", []byte("{"))
	verdicts, err := CertifySuite(context.Background(), store, st, 2)
	if err == nil || verdicts != nil {
		t.Fatalf("verdicts=%v err=%v, want an abort with no verdicts", verdicts, err)
	}
	if !strings.Contains(err.Error(), st.Instances[0].Base+".json") {
		t.Errorf("error %v does not name the broken sidecar", err)
	}
}

// A depth grid above the study's gate cap fails with the generator's cap
// error instead of exceeding the budget.
func TestOptimalityStudyDepthAboveCapFails(t *testing.T) {
	cfg := DefaultOptimalityConfig(1, 5)
	cfg.Family, cfg.SwapCounts = family.QuekoDepthID, []int{31}
	rows, err := RunOptimalityStudyCtx(context.Background(), cfg)
	if err == nil || rows != nil || !strings.Contains(err.Error(), "cap is 30") {
		t.Fatalf("rows=%v err=%v, want the generator's cap error", rows, err)
	}
}
