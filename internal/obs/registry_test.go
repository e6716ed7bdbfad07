package obs

import (
	"strings"
	"testing"
)

// TestHistogramBucketMath pins the bucket arithmetic: observations land
// in the first bucket whose upper bound is >= the value (le is
// inclusive), the exposition's buckets are cumulative, and sum/count
// agree with what was observed.
func TestHistogramBucketMath(t *testing.T) {
	h := newHistogram([]float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.5, 0.7, 2, 3} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
	if got, want := h.Sum(), 0.05+0.1+0.3+0.5+0.7+2+3; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	// Raw (non-cumulative) buckets: le=0.1 gets {0.05, 0.1}, le=0.5 gets
	// {0.3, 0.5}, le=1 gets {0.7}, +Inf gets {2, 3}.
	for i, want := range []int64{2, 2, 1, 2} {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}

	var b strings.Builder
	if err := h.writeSamples(&b, "m", ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`m_bucket{le="0.1"} 2`,
		`m_bucket{le="0.5"} 4`,
		`m_bucket{le="1"} 5`,
		`m_bucket{le="+Inf"} 7`,
		`m_count 7`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestExpositionFormat drives one of each family kind through a
// registry and checks the rendered text: HELP/TYPE pairs, sorted
// families, sorted label sets, escaping.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("zz_plain_total", "A plain counter.", func() int64 { return 3 })
	v := r.CounterVec("aa_labeled_total", "A labeled counter.", "route", "code")
	v.With("suites", "200").Add(2)
	v.With("eval", "200").Inc()
	r.GaugeFunc("mm_gauge", "A gauge.", func() int64 { return 42 })
	hv := r.HistogramVec("hh_seconds", "A histogram.", []float64{0.5, 1}, "route")
	hv.With("eval").Observe(0.25)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	// Families render sorted by name: aa < hh < mm < zz.
	order := []string{"aa_labeled_total", "hh_seconds", "mm_gauge", "zz_plain_total"}
	last := -1
	for _, name := range order {
		i := strings.Index(text, "# HELP "+name)
		if i < 0 {
			t.Fatalf("missing family %s:\n%s", name, text)
		}
		if i < last {
			t.Errorf("family %s out of sorted order", name)
		}
		last = i
	}
	for _, want := range []string{
		"# TYPE aa_labeled_total counter\n",
		`aa_labeled_total{route="eval",code="200"} 1`,
		`aa_labeled_total{route="suites",code="200"} 2`,
		"# TYPE mm_gauge gauge\nmm_gauge 42\n",
		"zz_plain_total 3\n",
		"# TYPE hh_seconds histogram\n",
		`hh_seconds_bucket{route="eval",le="0.5"} 1`,
		`hh_seconds_bucket{route="eval",le="+Inf"} 1`,
		`hh_seconds_sum{route="eval"} 0.25`,
		`hh_seconds_count{route="eval"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// eval sorts before suites within the family.
	if strings.Index(text, `{route="eval",code="200"}`) > strings.Index(text, `{route="suites",code="200"}`) {
		t.Errorf("label sets not sorted:\n%s", text)
	}
}

// TestLabelEscaping: quotes, backslashes, and newlines in label values
// must be escaped per the exposition format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "Escaping.", "k")
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{k="a\"b\\c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}

// TestDuplicateRegistrationPanics: metric names are API; registering
// one twice is a programming error caught at construction, whatever
// kinds the two registrations are.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("dup_total", "x", "route")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("dup_total", "y", func() int64 { return 0 })
}

// TestGaugeVec pins the labeled scrape-time gauge exposition behind
// qubikos_breaker_state: children sort by label value whatever order
// the callback returns them in, each scrape reads the callback afresh
// (gauges move both ways), and the TYPE line says gauge.
func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	states := map[string]int64{"tket": 1, "qmap": 2}
	r.GaugeVecFunc("breaker_state", "per-tool breaker state", []string{"tool"}, func() []LabeledValue {
		return []LabeledValue{
			{Values: []string{"tket"}, V: states["tket"]},
			{Values: []string{"qmap"}, V: states["qmap"]},
		}
	})
	scrape := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if got := scrape(); !strings.Contains(got, `breaker_state{tool="qmap"} 2`) {
		t.Errorf("first scrape missing qmap=2:\n%s", got)
	}
	states["qmap"], states["tket"] = 0, 0
	got := scrape()
	for _, want := range []string{
		"# TYPE breaker_state gauge",
		`breaker_state{tool="qmap"} 0`,
		`breaker_state{tool="tket"} 0`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if strings.Index(got, `tool="qmap"`) > strings.Index(got, `tool="tket"`) {
		t.Error("gauge children not sorted by label value")
	}
}
