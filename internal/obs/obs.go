// Package obs is the repository's zero-dependency observability core:
// hierarchical wall-time spans recorded into a preallocated per-trace
// ring buffer, and a registry of named metric families with a Prometheus
// text exposition: labeled counter and histogram families recorded
// through handles (CounterVec, HistogramVec), and counters and gauges
// read at scrape time (CounterFunc, GaugeFunc, GaugeVecFunc).
//
// The package exists because the evaluation pipeline's interesting
// questions — where does a sweep's wall time go, which tool dominates a
// cell, how hard did the SAT core work — are timing and counting
// questions, and answering them must not perturb the thing being
// measured. Both halves are therefore allocation-conscious by
// construction:
//
//   - A Span is a value type. Beginning and ending one on an existing
//     trace appends a fixed-size record into a buffer allocated when the
//     trace was created; the steady state allocates nothing (pinned by
//     TestSpanRecordingAllocs). When no trace is attached to the
//     context, Begin returns an inert zero Span whose End is a no-op, so
//     instrumented code paths cost a nil check when nobody is watching.
//   - A CounterVec child is a single atomic word behind a pre-resolved
//     handle; a HistogramVec child is a fixed bucket array of atomic
//     words. Recording into either allocates nothing (TestCounterAllocs,
//     TestHistogramAllocs).
//
// Spans form trees by track: a root span claims a track id (tid) from a
// free list, children started from the same context share it, and
// Chrome's trace viewer (chrome://tracing, Perfetto) reconstructs the
// nesting from time containment per track. WriteChrome exports the
// whole buffer as Chrome trace-event JSON; Summary aggregates it into
// per-(category, name, tool) wall-time rows for terminal reporting.
//
// The Registry half replaces the hand-rolled exposition that used to
// live in internal/server: families are registered once (typed, with
// help text), hot paths hold *Counter and *Histogram handles, and
// WritePrometheus renders the text format 0.0.4 with sorted families and
// label sets.
package obs
