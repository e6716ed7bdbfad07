package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/suite"
)

var update = flag.Bool("update", false, "regenerate expected_fig4.json (a few seconds per input set)")

// TestExpectedFig4 checks that expected_fig4.json answers every cell of
// every input set; with -update it rebuilds the file by sweeping each
// set once through harness.RunStoredEvalCtx.
func TestExpectedFig4(t *testing.T) {
	if *update {
		exp := expectedSwaps{}
		tools := harness.DefaultTools(fig4Trials)
		store, err := suite.Open(t.TempDir(), suite.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < fig4Sets; k++ {
			for _, m := range fig4Manifests(k) {
				st, err := store.EnsureCtx(context.Background(), m)
				if err != nil {
					t.Fatal(err)
				}
				fig, err := harness.RunStoredEvalCtx(context.Background(), store, st, tools,
					harness.StoredEvalOptions{Seed: fig4EvalSeed, Workers: 1, OnRow: func(r suite.Row) {
						if r.Error != "" {
							t.Errorf("%s %s/%s: %s", st.Hash, r.Tool, r.Instance, r.Error)
						}
						if exp[st.Hash] == nil {
							exp[st.Hash] = map[string]int{}
						}
						exp[st.Hash][r.Tool+"/"+r.Instance] = r.Swaps
					}})
				if err != nil || fig == nil {
					t.Fatal(err)
				}
			}
		}
		b, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected_fig4.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < fig4Sets; k++ {
		for _, m := range fig4Manifests(k) {
			if got, want := len(exp[m.Hash()]), 4*m.NumInstances(); got != want {
				t.Errorf("set %d suite %s: %d answers, want %d", k, m.Hash()[:12], got, want)
			}
		}
	}
}

// smokeFig4 sets up a fig4 session over one small Aspen-4 suite whose
// answers come from one sweep, as the committed file's do.
func smokeFig4(t *testing.T) *fig4Session {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	store, err := suite.Open(dir, suite.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.EnsureCtx(ctx, harness.SuiteConfig{
		Device: arch.RigettiAspen4(), SwapCounts: []int{2, 3}, CircuitsPerCount: 1,
		TargetTwoQubitGates: 60, Seed: 5,
	}.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	s := &fig4Session{dir: dir, store: store, suites: []*suite.Suite{st},
		tools: harness.DefaultTools(2), expected: map[string]int{}}
	_, err = harness.RunStoredEvalCtx(ctx, store, st, s.tools, harness.StoredEvalOptions{
		Seed: fig4EvalSeed, Workers: 1, LogPath: dir + "/answers.jsonl",
		OnRow: func(r suite.Row) { s.expected[r.Suite+"/"+r.Tool+"/"+r.Instance] = r.Swaps },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSecondSweepRunsEveryCell pins that each op streams into a fresh
// eval log: a second sweep routes every cell again instead of resuming
// (a resumed op would be free and its time meaningless).
func TestSecondSweepRunsEveryCell(t *testing.T) {
	s := smokeFig4(t)
	log := &opLog{}
	for op := 1; op <= 2; op++ {
		if err := s.sweep(context.Background(), log, &toolTimes{}); err != nil {
			t.Fatal(err)
		}
		if got, want := len(log.lat), op*s.cells(); got != want {
			t.Fatalf("after sweep %d: %d cells logged, want %d", op, got, want)
		}
	}
	if log.failed != 0 {
		t.Fatalf("%d cells failed: %v", log.failed, log.errs)
	}
}

// TestPlantedWrongAnswerFailsOp plants one wrong expected value and
// checks that exactly that cell is reported as a failed op.
func TestPlantedWrongAnswerFailsOp(t *testing.T) {
	s := smokeFig4(t)
	for k := range s.expected {
		if strings.Contains(k, "/tket/") {
			s.expected[k]++
			break
		}
	}
	log := &opLog{}
	if err := s.sweep(context.Background(), log, &toolTimes{}); err != nil {
		t.Fatal(err)
	}
	if log.failed != 1 || len(log.errs) != 1 || !strings.Contains(log.errs[0], "expected") {
		t.Fatalf("failed=%d errs=%v, want exactly the planted cell", log.failed, log.errs)
	}
	smp := log.sample(1, "cells", 75, nil)
	if smp.failed != 1 || smp.ops != s.cells() {
		t.Fatalf("sample: %d ops, %d failed", smp.ops, smp.failed)
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{5, 15, 4}, {30, 20, 3}, {40, 20, 3}, {50, 35, 2}, {100, 50, 0}} {
		got, beyond, err := nearestRank(xs, c.p)
		if err != nil || got != c.want || beyond != c.beyond {
			t.Errorf("p%g = %v (%d beyond, %v), want %v (%d beyond)", c.p, got, beyond, err, c.want, c.beyond)
		}
	}
	if _, _, err := nearestRank(nil, 50); err == nil {
		t.Error("percentile of no samples did not fail")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tailValue(xs, 90); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("p90 of 99 samples (9 beyond) = %v, want an error", err)
	}
	xs = append(xs, 99)
	if v, err := tailValue(xs, 90); err != nil || v != 89 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 89", v, err)
	}
	s := &sample{ops: 99, wall: 1, lat: xs[:99], tailPct: 90}
	if err := s.check(); err == nil {
		t.Fatal("check accepted a p90 with 9 samples beyond it")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the code: the workloads it
// names exist, and it declares exactly the metrics a run reports, with
// the units a run prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, runs report %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for _, m := range b.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end %s (%s): runs report unit %q", m.Name, m.Unit, u)
		}
	}
	names := perLayerNames()
	if len(b.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, traced runs report %d", len(b.PerLayer), len(names))
	}
	for i, m := range b.PerLayer {
		if m.Name != names[i] || m.Unit != layerUnit(names[i]) {
			t.Errorf("per-layer #%d is %s (%s), traced runs report %s (%s)", i, m.Name, m.Unit, names[i], layerUnit(names[i]))
		}
	}
}

// TestSegmentScaling checks that each op's latency is scaled by the
// slowdown of the segment it ended in, that each segment is one
// throughput window scaled the same way, and that a failed op earns
// nothing.
func TestSegmentScaling(t *testing.T) {
	t0 := time.Now()
	segs := []segment{
		{start: t0, end: t0.Add(time.Second), slow: 1},
		{start: t0.Add(time.Second), end: t0.Add(2 * time.Second), slow: 2},
		{start: t0.Add(2 * time.Second), end: t0.Add(3 * time.Second), slow: 1.25},
	}
	l := &opLog{}
	// Ten 40 ms ops ending in each segment, one unit each.
	for i := 0; i < 30; i++ {
		var err error
		if i == 3 {
			err = errors.New("wrong answer")
		}
		l.record("fetch", 40*time.Millisecond, 1, err)
		l.ends[i] = t0.Add(time.Duration(i/10)*time.Second + time.Duration(i%10+1)*90*time.Millisecond)
	}
	s := l.sample(0, "requests", 50, segs)
	if s.wall != 3*time.Second || s.failed != 1 || s.ops != 30 {
		t.Fatalf("wall %v, %d ops, %d failed", s.wall, s.ops, s.failed)
	}
	wantRates := []float64{9, 20, 12.5}
	for i, r := range s.rates {
		if math.Abs(r-wantRates[i]) > 1e-9 || math.Abs(s.rawRates[i]-[]float64{9, 10, 10}[i]) > 1e-9 {
			t.Errorf("segment %d: rate %v (raw %v), want %v", i, r, s.rawRates[i], wantRates[i])
		}
	}
	if got := s.throughput(); got != 12.5 {
		t.Errorf("throughput %v, want the median segment rate 12.5", got)
	}
	for i, want := range map[int]float64{0: 40, 15: 20, 29: 32} {
		if math.Abs(s.lat[i]-want) > 1e-9 || s.rawLat[i] != 40 || s.byClass["fetch"][i] != s.lat[i] {
			t.Errorf("op %d: scaled %v ms (raw %v), want %v", i, s.lat[i], s.rawLat[i], want)
		}
	}
}

// TestSegmentsCalibrateAround checks that segments runs its minimum
// even when d has already passed, calibrating once before the first
// segment and once after each, and gives each segment the mean
// slowdown of the calibrations on either side.
func TestSegmentsCalibrateAround(t *testing.T) {
	m := newSpeedometer()
	n := 0
	segs, err := m.segments(time.Nanosecond, 2, func() error {
		n++
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || n != 2 || len(m.marks) != 3 {
		t.Fatalf("%d segments, %d runs, %d calibrations; want 2, 2, 3", len(segs), n, len(m.marks))
	}
	for i, s := range segs {
		if s.slow <= 0 || s.slow != (m.marks[i]+m.marks[i+1])/2 {
			t.Errorf("segment %d: slowdown %v from marks %v, %v", i, s.slow, m.marks[i], m.marks[i+1])
		}
	}
}
