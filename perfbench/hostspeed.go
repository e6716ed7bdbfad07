package main

import (
	"sync"
	"time"
)

// The reference host is a share of a machine whose speed drifts for
// minutes at a time: the calibration kernel below took from 0.7 to 1.4
// times calibNominal from one run to the next, every workload's raw
// times moved with it, and ten runs of the same code spread by 8-30%.
// A run therefore measures that speed as it goes, with a kernel that
// lives here and calls none of the repository's code, and reports every
// time scaled to the speed at which the kernel takes calibNominal: a
// time measured while the kernel ran 10% slow is reported 10% shorter.
// A change to the program leaves the kernel alone, so it moves the
// scaled times as it would the raw ones.

const (
	// calibCopies kernels run at once, one per CPU a workload keeps
	// busy: a neighbour that slows either CPU slows the kernel.
	calibCopies = 2
	// calibReps is how many times a calibration runs the kernel; it
	// keeps the median, which a preemption in one rep does not move.
	calibReps = 5
	// calibSteps is the kernel's length; calibTable its table size in
	// uint32s per copy (4 MiB: past the core's own caches, so the
	// kernel also feels a neighbour's pressure on the shared ones).
	calibSteps = 1 << 20
	calibTable = 1 << 20
	// calibNominal is about the kernel's median time on the reference
	// host (two 2.0 GHz Xeon vCPUs); it only sets the scale.
	calibNominal = 12 * time.Millisecond
)

// speedometer measures the host's speed between stretches of work.
type speedometer struct {
	tables [calibCopies][]uint32
	// marks are the calibrations so far, each how much slower than
	// nominal the kernel ran (1.1 = 10% slower).
	marks []float64
}

// segment is one stretch of measured work between two calibrations;
// slow is the mean slowdown of the calibrations on either side.
type segment struct {
	start, end time.Time
	slow       float64
}

func newSpeedometer() *speedometer {
	m := &speedometer{}
	for i := range m.tables {
		m.tables[i] = make([]uint32, calibTable)
		for j := range m.tables[i] {
			m.tables[i][j] = uint32(j) * 2654435761
		}
	}
	return m
}

// calibKernel is the calibration work: a xorshift walk over the table
// with a data-dependent branch, so it pays for cache misses and branch
// mispredictions as the workloads' searches do. It allocates nothing.
func calibKernel(t []uint32, seed uint32) uint32 {
	x, acc := seed|1, uint32(0)
	mask := uint32(len(t) - 1)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & mask
		v := t[j]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 1
		}
		t[j] = v + x
	}
	return acc
}

// calibSink keeps the kernel's result live.
var calibSink uint32

// mark calibrates now and returns the slowdown it measured.
func (m *speedometer) mark() float64 {
	times := make([]float64, calibReps)
	for r := range times {
		var wg sync.WaitGroup
		var mu sync.Mutex
		t0 := time.Now()
		for c := 0; c < calibCopies; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				v := calibKernel(m.tables[c], uint32(r*calibCopies+c))
				mu.Lock()
				calibSink += v
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		times[r] = float64(time.Since(t0)) / float64(calibNominal)
	}
	slow := median(times)
	m.marks = append(m.marks, slow)
	return slow
}

// segments runs work closed-loop until d has passed, calibrating before
// the first stretch and after each, and returns the stretches. It runs
// at least minSegs stretches, and stops early when the next one would
// likely end past d.
func (m *speedometer) segments(d time.Duration, minSegs int, work func() error) ([]segment, error) {
	var segs []segment
	before := m.mark()
	t0 := time.Now()
	for n := 1; ; n++ {
		s := segment{start: time.Now()}
		if err := work(); err != nil {
			return nil, err
		}
		s.end = time.Now()
		after := m.mark()
		s.slow = (before + after) / 2
		segs = append(segs, s)
		before = after
		el := time.Since(t0)
		if n >= minSegs && el+el/time.Duration(n) > d {
			return segs, nil
		}
	}
}
