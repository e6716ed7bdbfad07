package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is the least number of samples that must lie beyond any
// reported percentile: fewer, and the percentile is one op's timing.
const minBeyond = 10

// sample is what one measured run observed.
type sample struct {
	ops    int           // ops attempted
	failed int           // ops that erred or returned a wrong answer
	wall   time.Duration // measured wall time
	units  float64       // work done, in unitName (cells, certs, requests)
	// unitName names the throughput unit.
	unitName string
	// lat holds every op's latency in ms, failed ops included, scaled
	// to the nominal host speed; rawLat as measured.
	lat, rawLat []float64
	// byClass holds lat by op class, for workloads that mix.
	byClass map[string][]float64
	// tailPct is the tail percentile reported as op_tail_ms.
	tailPct float64
	// rates are the scaled throughput of each segment of the run (a
	// sweep, a round, or 2 s of requests); throughput reports their
	// median, which a burst of interference in one window does not move.
	// rawRates are as measured.
	rates, rawRates []float64
	// named are the workload's own metrics, printed by name.
	named []namedValue
	notes []string
}

// namedValue is a workload-specific metric printed beside the JSON
// result, with the sample count behind it.
type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

// nearestRank returns the p-th percentile of xs by the nearest-rank
// method (the smallest value with at least p% of samples at or below
// it) and how many samples lie strictly beyond its rank.
func nearestRank(xs []float64, p float64) (v float64, beyond int, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("percentile of no samples")
	}
	if p <= 0 || p > 100 {
		return 0, 0, fmt.Errorf("percentile %g out of (0, 100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank, nil
}

// tailValue is nearestRank that refuses a percentile with fewer than
// minBeyond samples beyond it.
func tailValue(xs []float64, p float64) (float64, error) {
	v, beyond, err := nearestRank(xs, p)
	if err != nil {
		return 0, err
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d: run longer", p, len(xs), beyond, minBeyond)
	}
	return v, nil
}

func (s *sample) percentile(p float64) (float64, error) { return tailValue(s.lat, p) }

// throughput is the median window rate, or units per second of wall
// time when the run has fewer than three windows.
func (s *sample) throughput() float64 {
	if len(s.rates) < 3 {
		return s.units / s.wall.Seconds()
	}
	return median(s.rates)
}

// median is the upper median of xs, or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	r := append([]float64(nil), xs...)
	sort.Float64s(r)
	return r[len(r)/2]
}

// check rejects a run whose percentiles rest on too few samples.
func (s *sample) check() error {
	if s.ops == 0 || s.wall <= 0 {
		return fmt.Errorf("no ops completed")
	}
	for _, p := range []float64{50, s.tailPct} {
		if _, err := s.percentile(p); err != nil {
			return err
		}
	}
	return nil
}

// percentileNote formats a percentile with its sample count.
func percentileNote(xs []float64, p float64) (float64, string) {
	v, beyond, err := nearestRank(xs, p)
	if err != nil {
		return math.NaN(), err.Error()
	}
	return v, fmt.Sprintf("p%g of n=%d (%d beyond)", p, len(xs), beyond)
}

// opLog collects op outcomes from concurrent clients.
type opLog struct {
	mu     sync.Mutex
	lat    []float64
	failed int
	units  float64
	errs   []string
	// class, ends and credit are each op's class ("" for workloads that
	// do not mix), end time and the units it earned.
	class  []string
	ends   []time.Time
	credit []float64
}

// record logs one op. A failed op keeps its latency in the
// distribution and counts as failed; the first few errors are kept for
// the report.
func (l *opLog) record(class string, d time.Duration, units float64, err error) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ends = append(l.ends, time.Now())
	l.lat = append(l.lat, ms)
	l.class = append(l.class, class)
	if err != nil {
		units = 0
	}
	l.credit = append(l.credit, units)
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.units += units
}

// sample converts the log into a run sample. With segments, each op's
// latency is scaled by the host slowdown of the segment it ended in,
// each segment is one throughput window, and wall is their summed
// length; without, latencies stay raw and wall is as given.
func (l *opLog) sample(wall time.Duration, unitName string, tailPct float64, segs []segment) *sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &sample{
		ops:      len(l.lat),
		failed:   l.failed,
		wall:     wall,
		units:    l.units,
		unitName: unitName,
		lat:      make([]float64, len(l.lat)),
		rawLat:   append([]float64(nil), l.lat...),
		tailPct:  tailPct,
		byClass:  map[string][]float64{},
	}
	for _, e := range l.errs {
		s.notes = append(s.notes, "failed op: "+e)
	}
	segUnits := make([]float64, len(segs))
	k := 0
	for i, ms := range l.lat {
		slow := 1.0
		if len(segs) > 0 {
			for k < len(segs)-1 && l.ends[i].After(segs[k].end) {
				k++
			}
			slow = segs[k].slow
			segUnits[k] += l.credit[i]
		}
		s.lat[i] = ms / slow
		if c := l.class[i]; c != "" {
			s.byClass[c] = append(s.byClass[c], s.lat[i])
		}
	}
	if len(segs) > 0 {
		s.wall = 0
		for k, sg := range segs {
			d := sg.end.Sub(sg.start)
			s.wall += d
			s.rawRates = append(s.rawRates, segUnits[k]/d.Seconds())
			s.rates = append(s.rates, segUnits[k]/d.Seconds()*sg.slow)
		}
	}
	return s
}
