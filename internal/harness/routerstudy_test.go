package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/router"
)

// Every default tool must route from a fixed placement: starting from
// the planted mapping, the result's initial mapping is that mapping.
func TestAllDefaultToolsSupportPlacedRouting(t *testing.T) {
	store, st := ensureSuite(t, SuiteConfig{
		Device:              arch.RigettiAspen4(),
		SwapCounts:          []int{2},
		CircuitsPerCount:    1,
		TargetTwoQubitGates: 40,
		Seed:                3,
	})
	it, li, err := loadItem(store, st, st.Instances[0])
	if err != nil {
		t.Fatal(err)
	}
	it.initial = router.Mapping(li.Meta.InitialMapping)
	for _, spec := range DefaultTools(2) {
		res, toolErr, err := routeOne(context.Background(), spec, it, 1, 0, nil)
		if err != nil || res == nil {
			t.Errorf("%s cannot route from the planted mapping: %v %s", spec.Name, err, toolErr)
			continue
		}
		if !reflect.DeepEqual(res.InitialMapping, it.initial) {
			t.Errorf("%s started from %v, not the planted %v", spec.Name, res.InitialMapping, it.initial)
		}
	}
}

func TestRunRouterStudy(t *testing.T) {
	cfg := SuiteConfig{
		Device:              arch.RigettiAspen4(),
		SwapCounts:          []int{2},
		CircuitsPerCount:    2,
		TargetTwoQubitGates: 60,
		Seed:                3,
	}
	store, st := ensureSuite(t, cfg)
	rows, err := RunRouterStudy(context.Background(), store, st, DefaultTools(2), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // all four tools support placed routing
		t.Fatalf("rows=%d want 4", len(rows))
	}
	for _, r := range rows {
		if r.Circuits != 2 {
			t.Errorf("%s circuits=%d", r.Tool, r.Circuits)
		}
		if r.MeanRatio < 1 {
			t.Errorf("%s mean gap %.2f < 1", r.Tool, r.MeanRatio)
		}
	}
	var sb strings.Builder
	RenderRouterStudy(&sb, rows)
	if !strings.Contains(sb.String(), "Standalone-router") {
		t.Error("render header missing")
	}
}

// From the optimal mapping, the SABRE-family router should solve small
// instances optimally far more often than the slice router — the paper's
// point that QUBIKOS isolates routing quality.
func TestRouterStudySeparatesToolQuality(t *testing.T) {
	cfg := SuiteConfig{
		Device:              arch.RigettiAspen4(),
		SwapCounts:          []int{5},
		CircuitsPerCount:    4,
		TargetTwoQubitGates: 300,
		Seed:                9,
	}
	store, st := ensureSuite(t, cfg)
	rows, err := RunRouterStudy(context.Background(), store, st, DefaultTools(4), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	byTool := map[string]RouterRow{}
	for _, r := range rows {
		byTool[r.Tool] = r
	}
	if byTool["lightsabre"].MeanRatio > byTool["tket"].MeanRatio {
		t.Errorf("lightsabre (%.2fx) should route no worse than tket (%.2fx) from the optimal mapping",
			byTool["lightsabre"].MeanRatio, byTool["tket"].MeanRatio)
	}
}
