package sat

// Cardinality-constraint encodings used by the OLSQ2-style layout
// synthesis encoding: at-most-one (pairwise and sequential-counter) and
// exactly-one over a set of literals. They are defined over the
// ClauseAdder interface so they work identically against a Solver and a
// Recorder (DIMACS archival); thin methods on Solver keep call sites
// short.

// ClauseAdder is the minimal sink for CNF construction.
type ClauseAdder interface {
	// NewVar allocates a fresh variable and returns its (1-based) index.
	NewVar() int
	// AddClause adds a disjunction of literals. It copies lits and keeps
	// no reference to it, so a caller may reuse one buffer across calls.
	AddClause(lits ...Lit) error
}

// AddAtMostOnePairwise adds the quadratic pairwise at-most-one encoding:
// for every pair, not both. Best for small sets (n <= 6 or so). Every
// pair goes through one reused buffer, since a slice passed through the
// interface escapes to the heap.
func AddAtMostOnePairwise(s ClauseAdder, lits []Lit) error {
	pair := make([]Lit, 2)
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			pair[0], pair[1] = lits[i].Neg(), lits[j].Neg()
			if err := s.AddClause(pair...); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddAtMostOneSeq adds the sequential-counter at-most-one encoding with
// n-1 auxiliary variables and ~3n clauses (Sinz 2005). Linear size, good
// for large sets.
func AddAtMostOneSeq(s ClauseAdder, lits []Lit) error {
	n := len(lits)
	if n <= 4 {
		return AddAtMostOnePairwise(s, lits)
	}
	// aux[i] == "some literal among lits[0..i] is true"
	aux := make([]Lit, n-1)
	for i := range aux {
		aux[i] = Lit(s.NewVar())
	}
	// lits[0] -> aux[0]
	if err := s.AddClause(lits[0].Neg(), aux[0]); err != nil {
		return err
	}
	for i := 1; i < n-1; i++ {
		// lits[i] -> aux[i]; aux[i-1] -> aux[i]; lits[i] & aux[i-1] -> false
		if err := s.AddClause(lits[i].Neg(), aux[i]); err != nil {
			return err
		}
		if err := s.AddClause(aux[i-1].Neg(), aux[i]); err != nil {
			return err
		}
		if err := s.AddClause(lits[i].Neg(), aux[i-1].Neg()); err != nil {
			return err
		}
	}
	// last literal conflicts with prefix
	return s.AddClause(lits[n-1].Neg(), aux[n-2].Neg())
}

// AddAtMostOne picks an encoding based on set size.
func AddAtMostOne(s ClauseAdder, lits []Lit) error {
	if len(lits) <= 6 {
		return AddAtMostOnePairwise(s, lits)
	}
	return AddAtMostOneSeq(s, lits)
}

// AddImplies adds a -> b.
func AddImplies(s ClauseAdder, a, b Lit) error { return s.AddClause(a.Neg(), b) }

// AddIff adds a <-> b.
func AddIff(s ClauseAdder, a, b Lit) error {
	if err := s.AddClause(a.Neg(), b); err != nil {
		return err
	}
	return s.AddClause(b.Neg(), a)
}

// AddIffAnd defines y <-> (a AND b) with three clauses.
func AddIffAnd(s ClauseAdder, y, a, b Lit) error {
	if err := s.AddClause(y.Neg(), a); err != nil {
		return err
	}
	if err := s.AddClause(y.Neg(), b); err != nil {
		return err
	}
	return s.AddClause(a.Neg(), b.Neg(), y)
}

// AddIffOr defines y <-> (l1 OR l2 OR ...).
func AddIffOr(s ClauseAdder, y Lit, lits []Lit) error {
	for _, l := range lits {
		if err := s.AddClause(l.Neg(), y); err != nil {
			return err
		}
	}
	cl := make([]Lit, 0, len(lits)+1)
	cl = append(cl, y.Neg())
	cl = append(cl, lits...)
	return s.AddClause(cl...)
}
