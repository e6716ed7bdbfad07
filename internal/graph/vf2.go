package graph

// VF2 subgraph monomorphism: decide whether the pattern graph can be
// injectively mapped into the target graph such that every pattern edge
// maps to a target edge (non-induced subgraph isomorphism, which is the
// notion used by quantum layout synthesis: an interaction graph is
// executable without SWAPs iff it is a monomorphic subgraph of the coupling
// graph).
//
// The implementation follows Cordella et al. (2004) with the usual
// candidate-pair ordering and look-ahead pruning on neighborhood degrees.

// SubgraphIsomorphism reports whether pattern embeds into target, and if so
// returns one witness mapping from pattern vertices to target vertices
// (-1 for pattern vertices that are isolated and unconstrained — they are
// assigned greedily to remaining target vertices).
//
// maxNodes bounds the number of recursive search states explored; 0 means
// unbounded. If the bound is hit the second return value is false and the
// third reports the truncation.
func SubgraphIsomorphism(pattern, target *Graph, maxNodes int) (mapping []int, ok bool, truncated bool) {
	if pattern.N() > target.N() || pattern.M() > target.M() {
		return nil, false, false
	}
	// Quick degree-sequence prune: the k-th largest pattern degree must not
	// exceed the k-th largest target degree.
	pd, td := pattern.DegreeSequence(), target.DegreeSequence()
	for i := range pd {
		if pd[i] > td[i] {
			return nil, false, false
		}
	}

	s := &vf2state{
		p:        pattern,
		t:        target,
		core:     make([]int, pattern.N()),
		coreRev:  make([]int, target.N()),
		order:    vf2Order(pattern),
		maxNodes: maxNodes,
	}
	for i := range s.core {
		s.core[i] = -1
	}
	for i := range s.coreRev {
		s.coreRev[i] = -1
	}
	if s.match(0) {
		// Assign isolated/unreached pattern vertices to free target slots.
		free := make([]int, 0, target.N())
		for v := 0; v < target.N(); v++ {
			if s.coreRev[v] == -1 {
				free = append(free, v)
			}
		}
		fi := 0
		for v := 0; v < pattern.N(); v++ {
			if s.core[v] == -1 {
				s.core[v] = free[fi]
				fi++
			}
		}
		return s.core, true, false
	}
	return nil, false, s.truncated
}

type vf2state struct {
	p, t      *Graph
	core      []int // pattern vertex -> target vertex, -1 unmapped
	coreRev   []int // target vertex -> pattern vertex, -1 unmapped
	order     []int // pattern vertices in matching order (connected-first)
	nodes     int
	maxNodes  int
	truncated bool
}

// vf2Order returns pattern vertices with positive degree, ordered so each
// vertex (after the first of its component) is adjacent to an earlier one,
// components in decreasing max-degree order. Isolated vertices are omitted
// (they impose no edge constraints).
func vf2Order(p *Graph) []int {
	n := p.N()
	visited := make([]bool, n)
	var order []int
	// Seed each BFS at the highest-degree unvisited vertex.
	for {
		seed, best := -1, 0
		for v := 0; v < n; v++ {
			if !visited[v] && p.Degree(v) > best {
				seed, best = v, p.Degree(v)
			}
		}
		if seed == -1 {
			break
		}
		queue := []int{seed}
		visited[seed] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range p.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return order
}

func (s *vf2state) match(depth int) bool {
	if depth == len(s.order) {
		return true
	}
	if s.maxNodes > 0 && s.nodes >= s.maxNodes {
		s.truncated = true
		return false
	}
	s.nodes++
	pv := s.order[depth]

	// Candidate targets: if pv has an already-mapped neighbor, candidates
	// are the target neighbors of its image; otherwise all unmapped target
	// vertices (new component).
	var candidates []int
	anchored := false
	for _, pn := range s.p.Neighbors(pv) {
		if s.core[pn] != -1 {
			anchored = true
			for _, tc := range s.t.Neighbors(s.core[pn]) {
				if s.coreRev[tc] == -1 {
					candidates = append(candidates, tc)
				}
			}
			break
		}
	}
	if !anchored {
		for tv := 0; tv < s.t.N(); tv++ {
			if s.coreRev[tv] == -1 {
				candidates = append(candidates, tv)
			}
		}
	}

	for _, tv := range candidates {
		if s.coreRev[tv] != -1 {
			continue
		}
		if !s.feasible(pv, tv) {
			continue
		}
		s.core[pv] = tv
		s.coreRev[tv] = pv
		if s.match(depth + 1) {
			return true
		}
		s.core[pv] = -1
		s.coreRev[tv] = -1
	}
	return false
}

// feasible checks that mapping pv->tv keeps every already-mapped pattern
// edge realizable and passes the degree look-ahead.
func (s *vf2state) feasible(pv, tv int) bool {
	if s.p.Degree(pv) > s.t.Degree(tv) {
		return false
	}
	// Every mapped neighbor of pv must map to a neighbor of tv.
	for _, pn := range s.p.Neighbors(pv) {
		if m := s.core[pn]; m != -1 && !s.t.HasEdge(tv, m) {
			return false
		}
	}
	// Look-ahead: pv must have enough unmapped-neighbor capacity at tv.
	pFree := 0
	for _, pn := range s.p.Neighbors(pv) {
		if s.core[pn] == -1 {
			pFree++
		}
	}
	tFree := 0
	for _, tn := range s.t.Neighbors(tv) {
		if s.coreRev[tn] == -1 {
			tFree++
		}
	}
	return pFree <= tFree
}

// EmbeddingBlocked reports a fast sound certificate that the pattern cannot
// embed into the target: if for some degree threshold d the number of
// pattern vertices with degree >= d exceeds the number of target vertices
// with degree >= d, any injective map must place some pattern vertex of
// degree >= d on a target vertex of smaller degree, leaving one of its
// edges unrealizable. This is the pigeonhole argument behind QUBIKOS
// Lemma 1. A false return is inconclusive. Adding pattern edges only
// raises degrees, so a blocked pattern stays blocked.
func EmbeddingBlocked(pattern, target *Graph) bool {
	return TailBlocked(pattern.DegreeTail(), target.DegreeTail())
}

// TailBlocked is EmbeddingBlocked on degree tails (see DegreeTail), for
// callers that count a pattern's degrees without building its graph.
func TailBlocked(pattern, target []int) bool {
	if len(pattern) > len(target) {
		return true // the pattern's maximum degree exceeds the target's
	}
	for d := 1; d < len(pattern); d++ {
		if pattern[d] > target[d] {
			return true
		}
	}
	return false
}
