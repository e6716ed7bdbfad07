package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeClock installs a deterministic trace clock ticking in fixed
// increments, so golden exports are byte-stable.
func fakeClock(tr *Trace, stepNS int64) {
	var clock int64
	tr.now = func() int64 { clock += stepNS; return clock }
}

// TestChromeGolden pins the exporter's byte-level surface: field order,
// microsecond formatting, args rendering, and event ordering. Any
// change here is a change to what Perfetto users see.
func TestChromeGolden(t *testing.T) {
	tr := New(8)
	fakeClock(tr, 1500)

	root := tr.Root("eval", "cell") // start 1.5µs
	root.Arg("tool", "lightsabre")
	root.ArgInt("optimal", 5)
	child := tr.child("store", "read", root.tid) // start 3.0µs
	child.End()                                  // dur 1.5µs
	root.End()                                   // dur 4.5µs

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"cell","cat":"eval","ph":"X","ts":1.500,"dur":4.500,"pid":1,"tid":1,"args":{"tool":"lightsabre","optimal":5}},` +
		`{"name":"read","cat":"store","ph":"X","ts":3.000,"dur":1.500,"pid":1,"tid":1}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if b.String() != want {
		t.Errorf("chrome export mismatch\n got: %s\nwant: %s", b.String(), want)
	}
}

// TestChromeValidJSONAndNesting parses a real (wall-clock) export and
// checks both that it is valid JSON in the trace-event shape and that a
// child span's interval is contained in its parent's on the same track
// — the property Perfetto uses to reconstruct the hierarchy.
func TestChromeValidJSONAndNesting(t *testing.T) {
	tr := New(16)
	ctx := NewContext(context.Background(), tr)

	parent, ctx2 := Begin(ctx, "store", "ensure")
	child, _ := Begin(ctx2, "store", "generate")
	child.End()
	parent.End()

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b.String())
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(out.TraceEvents))
	}
	var p, c int
	for i, e := range out.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %d has ph=%q, want X", i, e.Ph)
		}
		switch e.Name {
		case "ensure":
			p = i
		case "generate":
			c = i
		}
	}
	pe, ce := out.TraceEvents[p], out.TraceEvents[c]
	if pe.Tid != ce.Tid {
		t.Errorf("child on track %d, parent on %d — must share a track to nest", ce.Tid, pe.Tid)
	}
	if ce.Ts < pe.Ts || ce.Ts+ce.Dur > pe.Ts+pe.Dur {
		t.Errorf("child [%v,%v] not contained in parent [%v,%v]", ce.Ts, ce.Ts+ce.Dur, pe.Ts, pe.Ts+pe.Dur)
	}
}

// TestBeginWithoutTrace: instrumentation against a bare context must be
// inert — no trace, no records, no panic.
func TestBeginWithoutTrace(t *testing.T) {
	sp, ctx := Begin(context.Background(), "x", "y")
	sp.Arg("k", "v")
	sp.ArgInt("n", 1)
	sp.End()
	if tr := FromContext(ctx); tr != nil {
		t.Fatal("Begin invented a trace")
	}
}

// TestRingOverwrite: a full ring overwrites its oldest records and
// counts the loss instead of growing or dropping new data.
func TestRingOverwrite(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		sp := tr.Root("cat", "span")
		sp.End()
	}
	if got := tr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4 (the ring capacity)", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
}

// TestWriteChromeFileWarnsOnDroppedSpans: the one trace-file writer the
// CLIs share writes the ring's surviving spans as valid Chrome JSON and
// warns when the ring overwrote spans; a trace that kept every span
// writes without a warning, and a nil trace writes nothing.
func TestWriteChromeFileWarnsOnDroppedSpans(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		spans    int
		warnWant string
	}{
		{2, ""},
		{5, "warning: trace buffer overflowed; the 3 oldest spans were dropped from "},
	} {
		tr := New(2)
		for i := 0; i < c.spans; i++ {
			sp := tr.Root("cat", "span")
			sp.End()
		}
		path := filepath.Join(dir, "t.json")
		var out, warn strings.Builder
		if err := WriteChromeFile(tr, path, &out, &warn); err != nil {
			t.Fatal(err)
		}
		if out.String() != "wrote "+path+"\n" {
			t.Errorf("%d spans: out = %q", c.spans, out.String())
		}
		if c.warnWant == "" && warn.Len() != 0 || !strings.HasPrefix(warn.String(), c.warnWant) {
			t.Errorf("%d spans: warn = %q, want prefix %q", c.spans, warn.String(), c.warnWant)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != 2 {
			t.Errorf("%d spans: file holds %d events (err %v), want the ring's 2", c.spans, len(doc.TraceEvents), err)
		}
	}
	var out, warn strings.Builder
	if err := WriteChromeFile(nil, filepath.Join(dir, "nil.json"), &out, &warn); err != nil || out.Len()+warn.Len() != 0 {
		t.Errorf("nil trace: err %v, out %q, warn %q", err, out.String(), warn.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "nil.json")); !os.IsNotExist(err) {
		t.Errorf("nil trace created a file (stat err %v)", err)
	}
}

// TestTidReuse: sequential root spans reuse one track; overlapping ones
// spread onto distinct tracks.
func TestTidReuse(t *testing.T) {
	tr := New(8)
	a := tr.Root("c", "a")
	a.End()
	b := tr.Root("c", "b")
	b.End()
	if a.tid != b.tid {
		t.Errorf("sequential spans got tracks %d and %d, want the same", a.tid, b.tid)
	}
	x := tr.Root("c", "x")
	y := tr.Root("c", "y")
	if x.tid == y.tid {
		t.Errorf("overlapping spans share track %d", x.tid)
	}
	y.End()
	x.End()
}

// TestSummaryAggregation groups by (cat, name, tool) and accumulates
// count and total.
func TestSummaryAggregation(t *testing.T) {
	tr := New(16)
	fakeClock(tr, 1000)
	for i := 0; i < 3; i++ {
		sp := tr.Root("eval", "cell")
		sp.Arg("tool", "tket")
		sp.End()
	}
	sp := tr.Root("eval", "cell")
	sp.Arg("tool", "qmap")
	sp.End()

	rows := tr.Summary()
	if len(rows) != 2 {
		t.Fatalf("got %d summary rows, want 2: %+v", len(rows), rows)
	}
	// Sorted by tool: qmap before tket.
	if rows[0].Tool != "qmap" || rows[0].Count != 1 {
		t.Errorf("row 0 = %+v, want qmap count 1", rows[0])
	}
	if rows[1].Tool != "tket" || rows[1].Count != 3 {
		t.Errorf("row 1 = %+v, want tket count 3", rows[1])
	}
	if rows[1].Total <= 0 || rows[1].Mean() <= 0 {
		t.Errorf("tket row has no accumulated time: %+v", rows[1])
	}
}
