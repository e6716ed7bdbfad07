package obs

import (
	"context"
	"sync"
	"time"
)

// maxSpanArgs is the fixed per-span label capacity. Spans carry at most
// this many key/value args; extra ones are dropped silently. Seven
// covers every call site in the repository (a certified SWAP instance
// attaches instance, device, optimum, outcome and three SAT counters)
// without ever allocating a map.
const maxSpanArgs = 7

// Arg is one span label: a key with either a string or an integer value.
type Arg struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// record is one completed span in the trace buffer. It is a fixed-size
// value so appending it never allocates.
type record struct {
	name  string
	cat   string
	start int64 // nanoseconds since the trace anchor
	dur   int64 // nanoseconds
	tid   int32
	nargs int8
	args  [maxSpanArgs]Arg
}

// Trace accumulates completed spans in a preallocated ring buffer over
// one monotonic clock. A Trace is safe for concurrent use; once the
// buffer is full the oldest records are overwritten and Dropped counts
// the loss, so a long run degrades to "most recent window" instead of
// growing without bound.
type Trace struct {
	t0  time.Time
	now func() int64 // nanoseconds since t0; swappable for golden tests

	mu       sync.Mutex
	recs     []record
	head     int // next overwrite position once the ring is full
	dropped  int64
	freeTids []int32
	nextTid  int32
}

// DefaultCapacity is the record capacity New(0) preallocates: 64 Ki
// records ≈ 25 MiB, enough for every (tool, instance) cell of the
// largest paper sweep with room for store and phase spans.
const DefaultCapacity = 1 << 16

// New returns an empty trace with a preallocated buffer of the given
// record capacity (0 means DefaultCapacity). The monotonic clock is
// anchored at the call.
func New(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	tr := &Trace{
		t0:       time.Now(),
		recs:     make([]record, 0, capacity),
		freeTids: make([]int32, 0, 64),
		nextTid:  1,
	}
	tr.now = func() int64 { return time.Since(tr.t0).Nanoseconds() }
	return tr
}

// Dropped reports how many records have been overwritten because the
// ring filled up.
func (tr *Trace) Dropped() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dropped
}

// Len reports how many records the trace currently holds.
func (tr *Trace) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.recs)
}

func (tr *Trace) add(r record) {
	tr.mu.Lock()
	if len(tr.recs) < cap(tr.recs) {
		tr.recs = append(tr.recs, r)
	} else {
		tr.recs[tr.head] = r
		tr.head++
		if tr.head == len(tr.recs) {
			tr.head = 0
		}
		tr.dropped++
	}
	tr.mu.Unlock()
}

// acquireTid hands out a track id, reusing the lowest-water free list so
// sequential spans share tracks and only genuinely concurrent spans
// spread onto new ones.
func (tr *Trace) acquireTid() int32 {
	tr.mu.Lock()
	if n := len(tr.freeTids); n > 0 {
		tid := tr.freeTids[n-1]
		tr.freeTids = tr.freeTids[:n-1]
		tr.mu.Unlock()
		return tid
	}
	tid := tr.nextTid
	tr.nextTid++
	tr.mu.Unlock()
	return tid
}

func (tr *Trace) releaseTid(tid int32) {
	tr.mu.Lock()
	tr.freeTids = append(tr.freeTids, tid)
	tr.mu.Unlock()
}

// Span is one in-flight timed region. It is a plain value: the zero
// Span is inert (End and the arg setters are no-ops), which is what a
// Begin against a context with no trace returns — instrumented code
// needs no "is tracing on" branches of its own.
type Span struct {
	tr    *Trace
	name  string
	cat   string
	start int64
	tid   int32
	owns  bool // this span claimed its tid and must release it at End
	nargs int8
	args  [maxSpanArgs]Arg
}

// Root starts a top-level span on its own track.
func (tr *Trace) Root(cat, name string) Span {
	if tr == nil {
		return Span{}
	}
	return Span{tr: tr, cat: cat, name: name, start: tr.now(), tid: tr.acquireTid(), owns: true}
}

// child starts a span nested on an existing track.
func (tr *Trace) child(cat, name string, tid int32) Span {
	return Span{tr: tr, cat: cat, name: name, start: tr.now(), tid: tid}
}

// Arg attaches a string label to the span. Beyond maxSpanArgs labels it
// is dropped.
func (s *Span) Arg(key, val string) {
	if s.tr == nil || int(s.nargs) == maxSpanArgs {
		return
	}
	s.args[s.nargs] = Arg{Key: key, Str: val}
	s.nargs++
}

// ArgInt attaches an integer label to the span.
func (s *Span) ArgInt(key string, val int64) {
	if s.tr == nil || int(s.nargs) == maxSpanArgs {
		return
	}
	s.args[s.nargs] = Arg{Key: key, Int: val, IsInt: true}
	s.nargs++
}

// End completes the span, recording it into the trace buffer. Calling
// End on the zero Span is a no-op. The receiver is a pointer so that
// `defer sp.End()` observes args attached after the defer statement.
func (s *Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.add(record{
		name:  s.name,
		cat:   s.cat,
		start: s.start,
		dur:   s.tr.now() - s.start,
		tid:   s.tid,
		nargs: s.nargs,
		args:  s.args,
	})
	if s.owns {
		s.tr.releaseTid(s.tid)
	}
}

// ctxKey carries the *Trace through a context; trackKey carries the
// track id of the innermost open span so children nest onto it.
type ctxKey struct{}
type trackKey struct{}

// NewContext returns ctx carrying the trace. Instrumented layers reach
// it back out with FromContext or, more commonly, Begin.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// Begin starts a span on the trace attached to ctx. When ctx carries no
// trace the returned Span is inert and the context is returned
// unchanged — the instrumented path pays two context lookups and
// nothing else. When it does, the span nests under the innermost span
// already open on this context (same track), or claims a fresh track
// when it is the first; the returned context carries the track for any
// children. The caller must End the span.
func Begin(ctx context.Context, cat, name string) (Span, context.Context) {
	tr := FromContext(ctx)
	if tr == nil {
		return Span{}, ctx
	}
	if tid, ok := ctx.Value(trackKey{}).(int32); ok {
		return tr.child(cat, name, tid), ctx
	}
	sp := tr.Root(cat, name)
	return sp, context.WithValue(ctx, trackKey{}, sp.tid)
}
