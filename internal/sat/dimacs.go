package sat

// DIMACS CNF import/export, the interchange format of SAT competitions.
// Useful for cross-checking the CDCL core against external solvers and
// for archiving the exact-verification formulas the olsq package builds.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Formula is a plain CNF: a variable count and clause list. The Solver
// does not retain added clauses in an exportable form (it rewrites them
// during preprocessing), so callers who want DIMACS archival collect a
// Formula alongside solver construction — see Recorder.
type Formula struct {
	NumVars int
	Clauses [][]Lit
}

// Recorder wraps a Solver so every AddClause is also captured in a
// Formula for later export.
type Recorder struct {
	*Solver
	Formula Formula
}

// NewRecorder returns a recording wrapper around a fresh solver.
func NewRecorder() *Recorder {
	return &Recorder{Solver: NewSolver()}
}

// NewVar allocates a variable in both views.
func (r *Recorder) NewVar() int {
	v := r.Solver.NewVar()
	if v > r.Formula.NumVars {
		r.Formula.NumVars = v
	}
	return v
}

// AddClause records and forwards the clause.
func (r *Recorder) AddClause(lits ...Lit) error {
	cl := append([]Lit(nil), lits...)
	if err := r.Solver.AddClause(cl...); err != nil {
		return err
	}
	r.Formula.Clauses = append(r.Formula.Clauses, cl)
	return nil
}

// WriteDIMACS emits the formula in DIMACS CNF format.
func WriteDIMACS(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, cl := range f.Clauses {
		for _, l := range cl {
			fmt.Fprintf(bw, "%d ", int(l))
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// ParseDIMACS reads a DIMACS CNF file. Comments (c ...) are skipped; the
// problem line is validated against the clauses read.
func ParseDIMACS(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	f := &Formula{}
	declared := -1
	var cur []Lit
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: malformed problem line %q", line)
			}
			nv, err1 := strconv.Atoi(fields[2])
			nc, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || nv < 0 || nc < 0 {
				return nil, fmt.Errorf("sat: malformed problem line %q", line)
			}
			f.NumVars = nv
			declared = nc
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: bad literal %q", tok)
			}
			if n == 0 {
				f.Clauses = append(f.Clauses, append([]Lit(nil), cur...))
				cur = cur[:0]
				continue
			}
			cur = append(cur, Lit(n))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		return nil, fmt.Errorf("sat: trailing clause without terminating 0")
	}
	if declared >= 0 && declared != len(f.Clauses) {
		return nil, fmt.Errorf("sat: problem line declares %d clauses, read %d", declared, len(f.Clauses))
	}
	for _, cl := range f.Clauses {
		for _, l := range cl {
			if l.Var() > f.NumVars {
				return nil, fmt.Errorf("sat: literal %d exceeds declared variable count %d", l, f.NumVars)
			}
		}
	}
	return f, nil
}

// Solve builds a fresh solver for the formula and decides it.
func (f *Formula) Solve() Status {
	s := NewSolver()
	for i := 0; i < f.NumVars; i++ {
		s.NewVar()
	}
	for _, cl := range f.Clauses {
		if err := s.AddClause(cl...); err != nil {
			return Unsat
		}
	}
	return s.Solve(context.Background())
}
