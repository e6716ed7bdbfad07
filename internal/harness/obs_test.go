package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/router"
)

// Every registered tool must expose router.Counters, and routing a
// circuit that needs at least one swap must register work — the
// harness's per-cell trace args depend on both.
func TestDefaultToolsAreInstrumented(t *testing.T) {
	dev := arch.Grid3x3()
	c := circuit.New(9)
	c.MustAppend(circuit.NewCX(0, 8), circuit.NewCX(2, 6), circuit.NewCX(0, 8))
	for _, spec := range DefaultTools(2) {
		r := spec.Make(1)
		ins, ok := r.(router.Instrumented)
		if !ok {
			t.Errorf("%s does not implement router.Instrumented", spec.Name)
			continue
		}
		if _, err := router.RouteWithContext(context.Background(), r, c, dev); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		cnt := ins.Counters()
		if cnt.Decisions == 0 {
			t.Errorf("%s: Counters().Decisions = 0 after routing, want > 0 (%+v)", spec.Name, cnt)
		}
	}
}

// A guarded cell run under a traced context must record exactly one
// "cell" span carrying the tool, instance, outcome, and counter args.
func TestRouteOneRecordsCellSpan(t *testing.T) {
	// A triangle interaction graph cannot embed in a path, so one swap is
	// provably optimal regardless of initial placement.
	c := circuit.New(3)
	c.MustAppend(circuit.NewCX(0, 1), circuit.NewCX(1, 2), circuit.NewCX(0, 2))
	it := EvalItem{ID: "inst0", Device: arch.Line(3), Circuit: c, Optimal: 1}
	tr := obs.New(16)
	ctx := obs.NewContext(context.Background(), tr)
	res, failure, err := routeOne(ctx, DefaultTools(1)[0], it, 1, 0, nil)
	if err != nil || failure != "" || res == nil {
		t.Fatalf("routeOne: res=%v failure=%q err=%v", res, failure, err)
	}
	if tr.Len() != 1 {
		t.Fatalf("trace holds %d spans, want exactly the cell span", tr.Len())
	}
	var sb strings.Builder
	if err := tr.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"name":"cell"`, `"cat":"eval"`,
		`"tool":"lightsabre"`, `"instance":"inst0"`,
		`"outcome":"ok"`, `"decisions":`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace export missing %s:\n%s", want, out)
		}
	}
}
