package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families and renders them in the
// Prometheus text exposition format 0.0.4. Families are registered once
// (typically at construction of the component they describe); hot paths
// then hold the returned handles and record through atomics only.
// Registering the same name twice panics — metric names are API.
type Registry struct {
	mu       sync.Mutex
	families map[string]familyWriter
}

// familyWriter is one registered family's exposition.
type familyWriter interface {
	writeExposition(w io.Writer) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]familyWriter{}}
}

func (r *Registry) register(name string, f familyWriter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric family " + name)
	}
	r.families[name] = f
}

// WritePrometheus renders every registered family, sorted by name, in
// the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]familyWriter, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.writeExposition(w); err != nil {
			return err
		}
	}
	return nil
}

// Counter is a monotonically increasing atomic counter: the handle
// CounterVec.With returns for one label combination.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay a
// well-formed counter; this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// funcFamily exposes a value computed at scrape time — the bridge for
// components that already keep their own counters (the suite store's
// Stats) or whose value is a property of current state (LRU residency).
type funcFamily struct {
	name, help, typ string
	fn              func() int64
}

func (f *funcFamily) writeExposition(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
		f.name, f.help, f.name, f.typ, f.name, f.fn())
	return err
}

// CounterFunc registers a counter whose value is read at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(name, &funcFamily{name: name, help: help, typ: "counter", fn: fn})
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, &funcFamily{name: name, help: help, typ: "gauge", fn: fn})
}

// LabeledValue is one child sample returned by a *VecFunc callback.
type LabeledValue struct {
	// Values are the label values, matching the family's label names in
	// count and order.
	Values []string
	V      int64
}

// funcVecFamily exposes a labeled family whose children are computed at
// scrape time — the labeled sibling of funcFamily, for components that
// keep their own per-key state (per-tool breaker states).
type funcVecFamily struct {
	name, help, typ string
	labels          []string
	fn              func() []LabeledValue
}

func (f *funcVecFamily) writeExposition(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
		return err
	}
	children := f.fn()
	sort.Slice(children, func(i, j int) bool {
		return lessValues(children[i].Values, children[j].Values)
	})
	for _, ch := range children {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, ch.Values), ch.V); err != nil {
			return err
		}
	}
	return nil
}

// GaugeVecFunc registers a labeled gauge family whose children are read
// at scrape time.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, fn func() []LabeledValue) {
	r.register(name, &funcVecFamily{name: name, help: help, typ: "gauge", labels: labels, fn: fn})
}

// CounterVec is a counter family with labels. With resolves one label
// combination to its *Counter handle; callers cache the handle so the
// per-event cost is a single atomic add.
type CounterVec struct {
	name, help string
	labels     []string

	mu       sync.Mutex
	children map[string]*vecChild
}

type vecChild struct {
	values []string
	c      Counter
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, labels: labels, children: map[string]*vecChild{}}
	r.register(name, v)
	return v
}

// With returns the counter for one label-value combination, creating it
// on first use. The values must match the registered label names in
// count and order.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	v.mu.Lock()
	defer v.mu.Unlock()
	ch, ok := v.children[key]
	if !ok {
		ch = &vecChild{values: append([]string(nil), values...)}
		v.children[key] = ch
	}
	return &ch.c
}

func (v *CounterVec) writeExposition(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.name, v.help, v.name); err != nil {
		return err
	}
	v.mu.Lock()
	children := make([]*vecChild, 0, len(v.children))
	for _, ch := range v.children {
		children = append(children, ch)
	}
	v.mu.Unlock()
	sort.Slice(children, func(i, j int) bool {
		return lessValues(children[i].values, children[j].values)
	})
	for _, ch := range children {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", v.name, labelString(v.labels, ch.values), ch.c.Value()); err != nil {
			return err
		}
	}
	return nil
}

// DefLatencyBuckets are the default request-latency bucket bounds in
// seconds, matching the conventional Prometheus client defaults.
var DefLatencyBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram of float64 observations: the
// handle HistogramVec.With returns for one label combination. Bucket
// counts, the total count, and the sum are all atomics; Observe
// allocates nothing.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// writeSamples emits the histogram's cumulative bucket, sum, and count
// samples with the given pre-rendered label prefix (e.g. `route="eval"`,
// or empty). The le label is appended to the prefix.
func (h *Histogram) writeSamples(w io.Writer, name, prefix string) error {
	cum := int64(0)
	sep := prefix
	if sep != "" {
		sep += ","
	}
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, cum); err != nil {
		return err
	}
	labels := ""
	if prefix != "" {
		labels = "{" + prefix + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
	return err
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	name, help string
	labels     []string
	bounds     []float64

	mu       sync.Mutex
	children map[string]*histChild
}

type histChild struct {
	values []string
	h      *Histogram
}

// HistogramVec registers and returns a labeled histogram family (nil
// bounds means DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	v := &HistogramVec{name: name, help: help, labels: labels, bounds: bounds, children: map[string]*histChild{}}
	r.register(name, v)
	return v
}

// With returns the histogram for one label-value combination, creating
// it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	v.mu.Lock()
	defer v.mu.Unlock()
	ch, ok := v.children[key]
	if !ok {
		ch = &histChild{values: append([]string(nil), values...), h: newHistogram(v.bounds)}
		v.children[key] = ch
	}
	return ch.h
}

func (v *HistogramVec) writeExposition(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name); err != nil {
		return err
	}
	v.mu.Lock()
	children := make([]*histChild, 0, len(v.children))
	for _, ch := range v.children {
		children = append(children, ch)
	}
	v.mu.Unlock()
	sort.Slice(children, func(i, j int) bool {
		return lessValues(children[i].values, children[j].values)
	})
	for _, ch := range children {
		prefix := labelPairs(v.labels, ch.values)
		if err := ch.h.writeSamples(w, v.name, prefix); err != nil {
			return err
		}
	}
	return nil
}

// labelPairs renders `k1="v1",k2="v2"` with exposition-format escaping.
func labelPairs(labels, values []string) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + labelPairs(labels, values) + "}"
}

// escapeLabel applies the exposition format's label-value escaping.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func lessValues(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// formatFloat renders a float sample or bucket bound the way Prometheus
// clients do: shortest float representation.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
