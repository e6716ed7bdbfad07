package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleSnapshot = `{
  "benchmarks": {
    "BenchmarkQmapRoute/eagle127": {
      "after": {"ns_per_op": 1000000, "bytes_per_op": 100, "allocs_per_op": 10}
    },
    "BenchmarkMlqlsRoute/aspen4": {
      "after": {"ns_per_op": 500000, "bytes_per_op": 100, "allocs_per_op": 10}
    }
  }
}`

func writeSnapshot(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(p, []byte(sampleSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkQmapRoute/eagle127-8": "BenchmarkQmapRoute/eagle127",
		"BenchmarkFigure4d-16":          "BenchmarkFigure4d",
		"BenchmarkFigure4d":             "BenchmarkFigure4d",
		"BenchmarkFoo/x-y":              "BenchmarkFoo/x-y",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunPassesWithinThreshold(t *testing.T) {
	snap := writeSnapshot(t)
	in := strings.NewReader(
		"goos: linux\n" +
			"BenchmarkQmapRoute/eagle127-4   1   1100000 ns/op   120 B/op   10 allocs/op\n" +
			"PASS\n")
	var out strings.Builder
	failed, err := run(snap, in, 0.25, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("10%% slower flagged as regression at 25%% threshold:\n%s", out.String())
	}
}

func TestRunFailsBeyondThreshold(t *testing.T) {
	snap := writeSnapshot(t)
	in := strings.NewReader("BenchmarkQmapRoute/eagle127-4   1   1300000 ns/op\n")
	var out strings.Builder
	failed, err := run(snap, in, 0.25, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("30%% slower not flagged at 25%% threshold:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report lacks REGRESSION marker:\n%s", out.String())
	}
}

func TestRunKeepsSlowestDuplicate(t *testing.T) {
	// The smoke runs at two GOMAXPROCS settings; the gate must hold at
	// the slower of the two readings.
	snap := writeSnapshot(t)
	in := strings.NewReader(
		"BenchmarkQmapRoute/eagle127     1   900000 ns/op\n" +
			"BenchmarkQmapRoute/eagle127-4   1   1400000 ns/op\n")
	failed, err := run(snap, in, 0.25, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("slow duplicate reading was masked by the fast one")
	}
}

func TestRunErrorsOnNoMatches(t *testing.T) {
	snap := writeSnapshot(t)
	in := strings.NewReader("BenchmarkUnknown-4   1   5 ns/op\n")
	if _, err := run(snap, in, 0.25, &strings.Builder{}); err == nil {
		t.Fatal("no-match input should error rather than pass vacuously")
	}
}

func TestRunSkipsCustomMetrics(t *testing.T) {
	// benchRoute reports gap-x, decisions/op and candidates/op between
	// ns/op and the -benchmem pairs; the gate reads ns/op and allocs/op
	// past them.
	snap := writeSnapshot(t)
	in := strings.NewReader("BenchmarkQmapRoute/eagle127-2   1   1100000 ns/op   140000 candidates/op   " +
		"8000 decisions/op   419.2 gap-x   120 B/op   30 allocs/op\n")
	var out strings.Builder
	failed, err := run(snap, in, 0.25, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed || !strings.Contains(out.String(), "ratio 1.10x  ok") {
		t.Fatalf("ns/op not read past the custom metrics:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "30 allocs/op vs snapshot 10 (advisory)") {
		t.Fatalf("allocs/op not read past the custom metrics:\n%s", out.String())
	}
}

// workSnapshot carries exact work counters for one row.
const workSnapshot = `{
  "benchmarks": {
    "BenchmarkQmapRoute/eagle127": {
      "after": {"ns_per_op": 1000000},
      "work": {"decisions/op": 8000, "candidates/op": 140000}
    }
  }
}`

func runWork(t *testing.T, input string) (bool, string) {
	t.Helper()
	p := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(p, []byte(workSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	failed, err := run(p, strings.NewReader(input), 0.25, &out)
	if err != nil {
		t.Fatal(err)
	}
	return failed, out.String()
}

func TestRunPassesEqualWorkCounters(t *testing.T) {
	failed, out := runWork(t,
		"BenchmarkQmapRoute/eagle127-2   1   1100000 ns/op   140000 candidates/op   8000 decisions/op   419.2 gap-x\n"+
			"BenchmarkQmapRoute/eagle127     1   1000000 ns/op   140000 candidates/op   8000 decisions/op   419.2 gap-x\n")
	if failed {
		t.Fatalf("equal counters flagged:\n%s", out)
	}
	if n := strings.Count(out, "  exact"); n != 4 {
		t.Fatalf("want 4 exact counter lines (2 counters x 2 readings), got %d:\n%s", n, out)
	}
}

func TestRunFailsChangedWorkCounter(t *testing.T) {
	// One more decision at one GOMAXPROCS setting fails the diff, however
	// fast the reading is.
	failed, out := runWork(t,
		"BenchmarkQmapRoute/eagle127-2   1   900000 ns/op   140000 candidates/op   8000 decisions/op\n"+
			"BenchmarkQmapRoute/eagle127     1   900000 ns/op   140000 candidates/op   8001 decisions/op\n")
	if !failed {
		t.Fatalf("changed counter not flagged:\n%s", out)
	}
	if !strings.Contains(out, "8001 decisions/op     snapshot           8000  WORK CHANGED") {
		t.Fatalf("report lacks the changed counter:\n%s", out)
	}
}

func TestRunSkipsAbsentWorkCounters(t *testing.T) {
	// A counter the reading lacks (candidates/op) or the row lacks
	// (conflicts/op) is skipped; the rest still gate.
	failed, out := runWork(t, "BenchmarkQmapRoute/eagle127-2   1   1000000 ns/op   8000 decisions/op   12 conflicts/op\n")
	if failed {
		t.Fatalf("absent counters flagged:\n%s", out)
	}
	if strings.Contains(out, "candidates/op") || strings.Contains(out, "conflicts/op") {
		t.Fatalf("absent counter reported:\n%s", out)
	}
	if !strings.Contains(out, "decisions/op") {
		t.Fatalf("present counter not compared:\n%s", out)
	}
}
