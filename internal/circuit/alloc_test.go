package circuit

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
)

// Reading and preparing an instance precedes every routing request, so
// ParseQASM and NewDAG are held to a fixed allocation count on a
// paper-scale instance: 3000 CX gates on Eagle-127's couplers. The
// counts are exact for a given toolchain, so these gates hold on any
// host. A per-gate or per-line allocation would cost thousands.

// eagleCX returns the paper-scale CX circuit both gates measure.
func eagleCX() *Circuit {
	edges := arch.IBMEagle127().Graph().Edges()
	rng := rand.New(rand.NewSource(1))
	c := New(127)
	for range 3000 {
		e := edges[rng.Intn(len(edges))]
		c.MustAppend(NewCX(e.U, e.V))
	}
	return c
}

func TestParseQASMAllocs(t *testing.T) {
	src := QASMString(eagleCX())
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ParseQASM(strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("ParseQASM of 3000 gates: %.0f allocations, want at most 64", allocs)
	}
}

func TestNewDAGAllocs(t *testing.T) {
	c := eagleCX()
	allocs := testing.AllocsPerRun(10, func() { NewDAG(c) })
	if allocs > 32 {
		t.Errorf("NewDAG of 3000 gates: %.0f allocations, want at most 32", allocs)
	}
}
