// Package mlqls implements an ML-QLS-style multilevel layout synthesis
// tool (Lin & Cong 2024): the circuit's interaction graph is coarsened by
// heavy-edge matching into a hierarchy of weighted cluster graphs, the
// coarsest level is placed greedily onto the device, the placement is
// projected back level by level with local-search refinement, and the
// resulting initial mapping is routed with a SABRE-style swap engine.
// Unlike LightSABRE's 1000-trial random-restart search, the multilevel
// pipeline commits to its constructed placement — which tracks the
// paper's observation that ML-QLS matches LightSABRE on small and medium
// devices but falls behind on Eagle.
//
// The weighted interaction graphs of the hierarchy are flat: neighbor
// lists with parallel edge-index slices into one edge array, replacing
// the former map[[2]int]int weight table. Every weight lookup in the
// greedy placement and refinement sweeps is an index into the edge
// array instead of a hash, with insertion and iteration orders
// preserved exactly, so placements — and therefore routed results — are
// bit-identical to the map-backed implementation (pinned by
// TestGoldenCorpus).
package mlqls

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/pool"
	"repro/internal/router"
	"repro/internal/sabre"
)

// The multilevel pipeline's fixed settings.
const (
	// coarsestSize stops coarsening when this many clusters remain.
	coarsestSize = 8
	// refinePasses is the number of local-search sweeps per level.
	refinePasses = 4
	// routingTrials is the number of SABRE routing trials run from the
	// multilevel placement (placement is fixed; only routing randomness
	// varies). ML-QLS uses far fewer trials than LightSABRE.
	routingTrials = 4
)

// Options configures the tool.
type Options struct {
	// Seed drives all randomness.
	Seed int64
}

// Router is the ML-QLS-style tool.
type Router struct {
	opts   Options
	budget *pool.Budget // optional shared worker budget
	stats  router.Counters
}

// Counters implements router.Instrumented. The routing stage's SABRE
// engine contributes its swap decisions and scored candidates; the
// multilevel placement contributes one Decision per refinement pass run
// and one Restart per hierarchy level uncoarsened. Like Route itself,
// not safe to call concurrently with Route.
func (r *Router) Counters() router.Counters { return r.stats }

// New returns an ML-QLS-style router.
func New(opts Options) *Router { return &Router{opts: opts} }

// Name implements router.Router.
func (r *Router) Name() string { return "ml-qls" }

// SetWorkerBudget implements router.BudgetedRouter: the budget is
// forwarded to the internal SABRE routing stage, whose trial pool
// borrows idle slots instead of assuming it owns every CPU. The
// multilevel placement itself is serial.
func (r *Router) SetWorkerBudget(b *pool.Budget) { r.budget = b }

// weightedGraph is an interaction graph with edge multiplicities, the
// object the multilevel hierarchy coarsens. Edges live in one flat
// array; the per-vertex adjacency keeps a parallel slice of indices
// into it, so a weight lookup along a neighbor walk is a single index.
type weightedGraph struct {
	n     int
	adj   [][]int32 // neighbor lists, insertion order
	eix   [][]int32 // parallel edge indices into edges
	edges []wedge   // normalized (u<v) edges, insertion order
}

// wedge is one weighted undirected edge with u < v.
type wedge struct {
	u, v int32
	w    int32
}

func newWeightedGraph(n int) *weightedGraph {
	return &weightedGraph{n: n, adj: make([][]int32, n), eix: make([][]int32, n)}
}

func (w *weightedGraph) addEdge(u, v, wt int) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	for i, x := range w.adj[u] {
		if int(x) == v {
			w.edges[w.eix[u][i]].w += int32(wt)
			return
		}
	}
	ei := int32(len(w.edges))
	w.edges = append(w.edges, wedge{u: int32(u), v: int32(v), w: int32(wt)})
	w.adj[u] = append(w.adj[u], int32(v))
	w.eix[u] = append(w.eix[u], ei)
	w.adj[v] = append(w.adj[v], int32(u))
	w.eix[v] = append(w.eix[v], ei)
}

// level is one rung of the multilevel hierarchy.
type level struct {
	g *weightedGraph
	// parent maps this level's vertices to the coarser level's clusters.
	parent []int
}

// Route implements router.Router. Without an initial mapping the
// multilevel placement runs over the shared skeleton, checking for
// cancellation between coarsening rounds and refinement levels (its
// stages are polynomial and small, so latency is bounded by one level's
// work). Either placement is then routed by the tool's SABRE stage —
// the reduced trial budget, pinned to the placement — which polls inside
// its decision loop.
func (r *Router) Route(ctx context.Context, p *router.Prepared, initial router.Mapping) (*router.Result, error) {
	if initial == nil {
		rng := rand.New(rand.NewSource(r.opts.Seed))
		var check router.CtxChecker
		check.Reset(ctx)
		initial = r.multilevelPlace(p.Skeleton, p.Device, rng, &check)
		if err := check.Err(); err != nil {
			return nil, fmt.Errorf("mlqls: %w", err)
		}
	}

	eng := sabre.New(sabre.Options{
		Trials: routingTrials,
		Seed:   r.opts.Seed + 1,
	})
	eng.SetWorkerBudget(r.budget)
	res, err := eng.Route(ctx, p, initial)
	if err != nil {
		return nil, fmt.Errorf("mlqls: %w", err)
	}
	r.stats.Add(eng.Counters())
	res.Tool = r.Name()
	return res, nil
}

// multilevelPlace builds the coarsening hierarchy, places the coarsest
// graph, and uncoarsens with refinement. A cancelled check makes it
// return early with whatever placement it has; the caller detects the
// cancellation through check.Err() and discards the result.
func (r *Router) multilevelPlace(skeleton *circuit.Circuit, dev *arch.Device, rng *rand.Rand, check *router.CtxChecker) router.Mapping {
	// Level 0: the raw interaction graph with gate multiplicities.
	w0 := newWeightedGraph(skeleton.NumQubits)
	for _, g := range skeleton.Gates {
		w0.addEdge(g.Q0, g.Q1, 1)
	}

	var levels []level
	cur := w0
	for cur.n > coarsestSize {
		if check.Tick() {
			return router.IdentityMapping(skeleton.NumQubits)
		}
		next, parent := coarsen(cur, rng)
		if next.n == cur.n {
			break // no matching possible (isolated vertices only)
		}
		levels = append(levels, level{g: cur, parent: parent})
		cur = next
	}

	// Place the coarsest graph: clusters in decreasing weighted degree,
	// each to the free physical qubit minimizing weighted distance to
	// already-placed neighbors (BFS-centred start).
	place := placeGreedy(cur, dev, rng)

	// Uncoarsen: children inherit cluster slots, then refine.
	for li := len(levels) - 1; li >= 0; li-- {
		if check.Tick() {
			return place
		}
		lv := levels[li]
		place = project(lv, place, dev, rng)
		refine(lv.g, place, dev, refinePasses, rng)
		r.stats.Restarts++
		r.stats.Decisions += int64(refinePasses)
	}
	if len(levels) == 0 {
		refine(w0, place, dev, refinePasses, rng)
		r.stats.Restarts++
		r.stats.Decisions += int64(refinePasses)
	}
	return place
}

// coarsen performs one round of heavy-edge matching: unmatched vertices
// pair with their heaviest unmatched neighbor.
func coarsen(g *weightedGraph, rng *rand.Rand) (*weightedGraph, []int) {
	order := rng.Perm(g.n)
	match := make([]int, g.n)
	for i := range match {
		match[i] = -1
	}
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		bestU, bestW := -1, -1
		for i, u := range g.adj[v] {
			if match[u] == -1 {
				if wt := int(g.edges[g.eix[v][i]].w); wt > bestW {
					bestU, bestW = int(u), wt
				}
			}
		}
		if bestU != -1 {
			match[v] = bestU
			match[bestU] = v
		}
	}
	parent := make([]int, g.n)
	nc := 0
	for v := 0; v < g.n; v++ {
		if match[v] == -1 || match[v] > v {
			parent[v] = nc
			if match[v] != -1 {
				parent[match[v]] = nc
			}
			nc++
		}
	}
	coarse := newWeightedGraph(nc)
	keys := append([]wedge(nil), g.edges...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].u != keys[j].u {
			return keys[i].u < keys[j].u
		}
		return keys[i].v < keys[j].v
	})
	for _, e := range keys {
		pu, pv := parent[e.u], parent[e.v]
		if pu != pv {
			coarse.addEdge(pu, pv, int(e.w))
		}
	}
	return coarse, parent
}

// placeGreedy maps a weighted graph's vertices to physical qubits.
func placeGreedy(g *weightedGraph, dev *arch.Device, rng *rand.Rand) router.Mapping {
	dist := dev.Distances()
	gc := dev.Graph()

	// Vertex order: decreasing weighted degree.
	wdeg := make([]int, g.n)
	for _, e := range g.edges {
		wdeg[e.u] += int(e.w)
		wdeg[e.v] += int(e.w)
	}
	order := rng.Perm(g.n)
	sort.SliceStable(order, func(a, b int) bool { return wdeg[order[a]] > wdeg[order[b]] })

	used := make([]bool, gc.N())
	place := make(router.Mapping, g.n)
	for i := range place {
		place[i] = -1
	}
	// Seed the densest vertex at the device's highest-degree qubit.
	hub, best := 0, -1
	for p := 0; p < gc.N(); p++ {
		if gc.Degree(p) > best {
			hub, best = p, gc.Degree(p)
		}
	}
	for _, v := range order {
		bestP, bestCost := -1, 0
		for p := 0; p < gc.N(); p++ {
			if used[p] {
				continue
			}
			cost := 0
			for i, u := range g.adj[v] {
				if place[u] != -1 {
					cost += int(g.edges[g.eix[v][i]].w) * dist.At(p, place[u])
				}
			}
			if place[v] == -1 && cost == 0 {
				// No placed neighbors: prefer closeness to the hub.
				cost = dist.At(p, hub)
			}
			if bestP == -1 || cost < bestCost {
				bestP, bestCost = p, cost
			}
		}
		place[v] = bestP
		used[bestP] = true
	}
	return place
}

// project expands a coarse placement to the finer level: the first child
// takes the cluster's slot, further children take the nearest free slots.
func project(lv level, coarse router.Mapping, dev *arch.Device, rng *rand.Rand) router.Mapping {
	gc := dev.Graph()
	used := make([]bool, gc.N())
	fine := make(router.Mapping, lv.g.n)
	for i := range fine {
		fine[i] = -1
	}
	// Children grouped by cluster; cluster ids are compact (0..nc-1), so
	// the former sorted-map walk is a plain slice in id order.
	nc := len(coarse)
	children := make([][]int, nc)
	for v, p := range lv.parent {
		children[p] = append(children[p], v)
	}
	for cluster := 0; cluster < nc; cluster++ {
		kids := children[cluster]
		if len(kids) == 0 {
			continue
		}
		slot := coarse[cluster]
		rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
		for i, kid := range kids {
			if i == 0 && !used[slot] {
				fine[kid] = slot
				used[slot] = true
				continue
			}
			// BFS outward from the cluster slot for a free location.
			d := gc.BFSFrom(slot)
			bestP, bestD := -1, -1
			for p := 0; p < gc.N(); p++ {
				if !used[p] && d[p] >= 0 && (bestP == -1 || d[p] < bestD) {
					bestP, bestD = p, d[p]
				}
			}
			fine[kid] = bestP
			used[bestP] = true
		}
	}
	return fine
}

// refine performs local-search sweeps: for every program qubit, try
// relocating to each neighbor's location (swapping occupants) and keep
// strictly improving moves under the weighted-distance objective.
//
// The objective is evaluated delta-gain style: curCost caches every
// qubit's incident-wedge cost sum at its current location (recomputed
// once per pass), candidates are costed positionally against the cache
// without touching the placement, and an accepted move patches the
// cache by exact integer deltas along the two moved qubits' wedges.
// Every compared integer matches the re-walking implementation, so the
// accepted-move sequence — and with it the rng stream — is bit-identical.
func refine(g *weightedGraph, place router.Mapping, dev *arch.Device, passes int, rng *rand.Rand) {
	dist := dev.Distances()
	gc := dev.Graph()
	inv := place.Inverse(gc.N())
	curCost := make([]int, g.n)

	for pass := 0; pass < passes; pass++ {
		for v := 0; v < g.n; v++ {
			c := 0
			pv := place[v]
			for i, u := range g.adj[v] {
				if int(u) != v && place[u] != -1 {
					c += int(g.edges[g.eix[v][i]].w) * dist.At(pv, place[u])
				}
			}
			curCost[v] = c
		}
		improved := false
		order := rng.Perm(g.n)
		for _, v := range order {
			pv := place[v]
			for _, pn := range gc.Neighbors(pv) {
				u := inv[pn]
				// Positional cost of v at pn and of the displaced
				// occupant u at pv; everyone else stays put.
				after := 0
				for i, w := range g.adj[v] {
					if int(w) == v {
						continue
					}
					pw := place[w]
					if int(w) == u {
						pw = pv
					}
					if pw != -1 {
						after += int(g.edges[g.eix[v][i]].w) * dist.At(pn, pw)
					}
				}
				afterU := 0
				beforeU := 0
				if u != -1 {
					beforeU = curCost[u]
					for i, w := range g.adj[u] {
						if int(w) == u {
							continue
						}
						pw := place[w]
						if int(w) == v {
							pw = pn
						}
						if pw != -1 {
							afterU += int(g.edges[g.eix[u][i]].w) * dist.At(pv, pw)
						}
					}
				}
				if after+afterU < curCost[v]+beforeU {
					// Commit: move the pair, then patch the cached sums of
					// every wedge neighbor by the exact distance delta.
					place[v] = pn
					if u != -1 {
						place[u] = pv
					}
					inv[pn] = v
					inv[pv] = u
					for i, w := range g.adj[v] {
						if int(w) == v || int(w) == u {
							continue
						}
						if pw := place[w]; pw != -1 {
							curCost[w] += int(g.edges[g.eix[v][i]].w) * (dist.At(pw, pn) - dist.At(pw, pv))
						}
					}
					if u != -1 {
						for i, w := range g.adj[u] {
							if int(w) == u || int(w) == v {
								continue
							}
							if pw := place[w]; pw != -1 {
								curCost[w] += int(g.edges[g.eix[u][i]].w) * (dist.At(pw, pv) - dist.At(pw, pn))
							}
						}
					}
					curCost[v] = after
					if u != -1 {
						curCost[u] = afterU
					}
					improved = true
					break
				}
			}
		}
		if !improved {
			break
		}
	}
}
