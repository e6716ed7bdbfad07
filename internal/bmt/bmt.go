// Package bmt implements a subgraph-isomorphism + token-swapping layout
// synthesis tool in the style of Siraichi et al.'s BMT (OOPSLA 2019),
// the family the QUBIKOS paper's Section III-C analyzes: the circuit is
// split greedily into maximal prefixes whose interaction graph embeds
// into the coupling graph (found with VF2); each segment executes
// SWAP-free under its embedding, and consecutive embeddings are stitched
// with a token-swapping transition.
//
// QUBIKOS is constructed so that this strategy is *sound but suboptimal*:
// the special gates mark the segment boundaries, each segment alone
// embeds, yet segment-locally optimal embeddings need not compose into
// the globally optimal initial mapping — exactly the paper's argument for
// why the benchmark defeats isomorphism-based tools. This implementation
// exists to make that claim measurable.
package bmt

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/router"
	"repro/internal/tokenswap"
)

// vf2Budget bounds each embedding search; exhausted searches close the
// current segment early (soundness is unaffected).
const vf2Budget = 200_000

// Router is the VF2 + token-swapping tool.
type Router struct{}

// New returns a BMT-style router. The tool is deterministic.
func New() *Router { return &Router{} }

// Name implements router.Router.
func (r *Router) Name() string { return "vf2-ts" }

// segment is a maximal embeddable run of two-qubit gates.
type segment struct {
	gates   []circuit.Gate
	mapping router.Mapping
}

// segmentize splits the skeleton into maximal embeddable prefixes. Each
// returned segment's interaction graph embeds into the coupling graph via
// the recorded mapping. VF2 is only consulted when the incoming gate
// breaks the current embedding, which keeps the common case cheap.
func (r *Router) segmentize(skeleton *circuit.Circuit, gc *graph.Graph) ([]segment, error) {
	nQ := skeleton.NumQubits
	var segments []segment
	segGraph := graph.New(nQ)
	var segGates []circuit.Gate
	var curMap router.Mapping

	embed := func(pat *graph.Graph) (router.Mapping, bool) {
		if graph.EmbeddingBlocked(pat, gc) {
			return nil, false
		}
		m, ok, trunc := graph.SubgraphIsomorphism(pat, gc, vf2Budget)
		if !ok || trunc {
			return nil, false
		}
		return router.Mapping(m), true
	}

	for _, g := range skeleton.Gates {
		if curMap != nil && gc.HasEdge(curMap[g.Q0], curMap[g.Q1]) {
			if !segGraph.HasEdge(g.Q0, g.Q1) {
				mustAdd(segGraph, g.Q0, g.Q1)
			}
			segGates = append(segGates, g)
			continue
		}
		hadEdge := segGraph.HasEdge(g.Q0, g.Q1)
		if !hadEdge {
			mustAdd(segGraph, g.Q0, g.Q1)
		}
		if m, ok := embed(segGraph); ok {
			curMap = m
			segGates = append(segGates, g)
			continue
		}
		// The segment cannot absorb this gate: close it (the polluted
		// segGraph is discarded wholesale) and start a fresh one.
		if len(segGates) > 0 {
			segments = append(segments, segment{gates: segGates, mapping: curMap})
		}
		segGraph = graph.New(nQ)
		segGates = nil
		mustAdd(segGraph, g.Q0, g.Q1)
		m, ok := embed(segGraph)
		if !ok {
			return nil, fmt.Errorf("bmt: a single gate does not embed into the device")
		}
		curMap = m
		segGates = append(segGates, g)
	}
	if len(segGates) > 0 {
		segments = append(segments, segment{gates: segGates, mapping: curMap})
	}
	return segments, nil
}

// Route implements router.Router. The tool places every segment itself,
// so it cannot route from a fixed initial mapping. Its search does not
// poll ctx: a context that is already done is refused up front.
func (r *Router) Route(ctx context.Context, p *router.Prepared, initial router.Mapping) (*router.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bmt: %w", err)
	}
	if initial != nil {
		return nil, errors.New("bmt: cannot route from a fixed initial mapping")
	}
	dev := p.Device
	work := p.Padded
	skeleton := p.Skeleton
	gc := dev.Graph()
	nQ := skeleton.NumQubits

	segments, err := r.segmentize(skeleton, gc)
	if err != nil {
		return nil, err
	}
	if len(segments) == 0 {
		woven, err := router.WeaveSingleQubitGates(work, circuit.New(nQ))
		if err != nil {
			return nil, err
		}
		return &router.Result{
			Tool:           r.Name(),
			InitialMapping: router.IdentityMapping(nQ),
			Transpiled:     woven,
			SwapCount:      0,
			Trials:         1,
		}, nil
	}

	// Stitch: emit each segment under its embedding, paying a
	// token-swapping transition between consecutive embeddings. The
	// device's cached distance matrix backs every transition — the
	// solver no longer re-runs an all-pairs BFS per segment boundary.
	out := circuit.New(nQ)
	placed := segments[0].mapping.Clone()
	cur := placed.Clone()
	swaps := 0
	for si, seg := range segments {
		if si > 0 {
			trans, err := tokenswap.TransitionDist(gc, dev.Distances(), cur, seg.mapping)
			if err != nil {
				return nil, fmt.Errorf("bmt: transition %d: %w", si, err)
			}
			inv := cur.Inverse(gc.N())
			for _, sw := range trans {
				qa, qb := inv[sw.U], inv[sw.V]
				out.MustAppend(circuit.NewSwap(qa, qb))
				swaps++
				cur.SwapProgram(qa, qb)
				inv[sw.U], inv[sw.V] = qb, qa
			}
		}
		out.Gates = append(out.Gates, seg.gates...)
	}

	woven, err := router.WeaveSingleQubitGates(work, out)
	if err != nil {
		return nil, fmt.Errorf("bmt: %w", err)
	}
	return &router.Result{
		Tool:           r.Name(),
		InitialMapping: placed,
		Transpiled:     woven,
		SwapCount:      swaps,
		Trials:         1,
	}, nil
}

// SegmentCount reports how many embeddable segments the tool splits the
// circuit into — the analysis quantity of the paper's Section III-C (on
// QUBIKOS backbones the special gates force one boundary per section, so
// the count is at least OptSwaps+1... unless padding merges differently).
func (r *Router) SegmentCount(c *circuit.Circuit, dev *arch.Device) (int, error) {
	work := router.PadToDevice(c, dev)
	segments, err := r.segmentize(router.TwoQubitSkeleton(work), dev.Graph())
	if err != nil {
		return 0, err
	}
	return len(segments), nil
}

func mustAdd(g *graph.Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}
