package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// WriteChromeFile writes the trace to path as Chrome trace-event JSON
// (see WriteChrome) and reports "wrote <path>" on out. When the ring
// buffer overwrote spans, it also warns on warn how many of the oldest
// spans the file lacks, so no command writes a truncated trace
// silently. A nil trace writes nothing.
func WriteChromeFile(tr *Trace, path string, out, warn io.Writer) error {
	if tr == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if n := tr.Dropped(); n > 0 {
		fmt.Fprintf(warn, "warning: trace buffer overflowed; the %d oldest spans were dropped from %s\n", n, path)
	}
	fmt.Fprintln(out, "wrote", path)
	return nil
}

// WriteChrome exports the trace as Chrome trace-event JSON — the format
// chrome://tracing and ui.perfetto.dev load directly. Every span becomes
// one complete ("ph":"X") event with microsecond timestamps; events are
// sorted by start time then track, and fields are emitted in a fixed
// order, so the output is deterministic for a deterministic trace
// (pinned by the golden test).
func (tr *Trace) WriteChrome(w io.Writer) error {
	tr.mu.Lock()
	recs := make([]record, len(tr.recs))
	copy(recs, tr.recs)
	tr.mu.Unlock()

	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].start != recs[j].start {
			return recs[i].start < recs[j].start
		}
		return recs[i].tid < recs[j].tid
	})

	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if err := writeEvent(w, r); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, `],"displayTimeUnit":"ms"}`+"\n")
	return err
}

// writeEvent emits one complete event with a fixed field order:
// name, cat, ph, ts, dur, pid, tid, args.
func writeEvent(w io.Writer, r *record) error {
	name, err := json.Marshal(r.name)
	if err != nil {
		return err
	}
	cat, err := json.Marshal(r.cat)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, `{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d`,
		name, cat, micros(r.start), micros(r.dur), r.tid); err != nil {
		return err
	}
	if r.nargs > 0 {
		if _, err := io.WriteString(w, `,"args":{`); err != nil {
			return err
		}
		for i := 0; i < int(r.nargs); i++ {
			a := &r.args[i]
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			key, err := json.Marshal(a.Key)
			if err != nil {
				return err
			}
			if a.IsInt {
				_, err = fmt.Fprintf(w, "%s:%d", key, a.Int)
			} else {
				var val []byte
				if val, err = json.Marshal(a.Str); err == nil {
					_, err = fmt.Fprintf(w, "%s:%s", key, val)
				}
			}
			if err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "}")
	return err
}

// micros renders nanoseconds as decimal microseconds with fixed
// three-digit precision, the unit the trace-event format expects.
func micros(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}
