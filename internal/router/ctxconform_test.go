package router_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bmt"
	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/mlqls"
	"repro/internal/qmap"
	"repro/internal/router"
	"repro/internal/sabre"
	"repro/internal/tket"
)

// ctxTools is every QLS tool in the repository plus a chaos Pass
// wrapper; each must honour the cancellable contract. The VF2 +
// token-swapping tool never polls mid-search, so it pins the weakest
// form of the contract: a context that is already done is refused.
func ctxTools() []router.Router {
	return []router.Router{
		sabre.New(sabre.Options{Trials: 2, Seed: 3}),
		tket.New(tket.Options{Seed: 3}),
		qmap.New(qmap.Options{Seed: 3}),
		mlqls.New(mlqls.Options{Seed: 3}),
		bmt.New(),
		&chaos.Router{Inner: sabre.New(sabre.Options{Trials: 2, Seed: 3}), Mode: chaos.Pass},
	}
}

func conformCircuit() *circuit.Circuit {
	c := circuit.New(9)
	rng := rand.New(rand.NewSource(7))
	for len(c.Gates) < 120 {
		a, b := rng.Intn(9), rng.Intn(9)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	return c
}

func resultPrint(res *router.Result) uint64 {
	h := fnv.New64a()
	for _, p := range res.InitialMapping {
		fmt.Fprintf(h, "m%d,", p)
	}
	for _, g := range res.Transpiled.Gates {
		fmt.Fprintf(h, "g%d:%d:%d;", g.Kind, g.Q0, g.Q1)
	}
	return h.Sum64()
}

// TestAllToolsImplementCtxInterfaces pins the one-method surface:
// router.Router's ctx-aware Route is every tool's only routing method.
func TestAllToolsImplementCtxInterfaces(t *testing.T) {
	for _, r := range ctxTools() {
		typ := reflect.TypeOf(r)
		var routing []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Route") {
				routing = append(routing, name)
			}
		}
		if len(routing) != 1 || routing[0] != "Route" {
			t.Errorf("%s routing methods = %v, want exactly [Route]", r.Name(), routing)
		}
	}
}

// TestRouteCtxBitIdenticalWithLiveContext asserts that an armed (but
// never-fired) cancellation context changes nothing: the ctx-aware path
// must produce bit-identical results to the plain path. tket and qmap
// cache engine scratch per Router, so each leg uses a fresh instance.
func TestRouteCtxBitIdenticalWithLiveContext(t *testing.T) {
	dev := arch.Grid3x3()
	c := conformCircuit()
	plain := ctxTools()
	armed := ctxTools()
	for i := range plain {
		r := plain[i]
		t.Run(r.Name(), func(t *testing.T) {
			base, err := router.RouteWithContext(context.Background(), r, c, dev)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got, err := router.RouteWithContext(ctx, armed[i], c, dev)
			if err != nil {
				t.Fatal(err)
			}
			if got.SwapCount != base.SwapCount || resultPrint(got) != resultPrint(base) {
				t.Errorf("ctx-aware path diverged: %d swaps (plain %d), print %#x (plain %#x)",
					got.SwapCount, base.SwapCount, resultPrint(got), resultPrint(base))
			}
		})
	}
}

// TestRouteCtxCancelledBeforeStart asserts every tool reports a dead
// context instead of routing, from a searched and from a pinned
// placement alike.
func TestRouteCtxCancelledBeforeStart(t *testing.T) {
	dev := arch.Grid3x3()
	c := conformCircuit()
	p, err := router.Prepare(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range ctxTools() {
		t.Run(r.Name(), func(t *testing.T) {
			for _, initial := range []router.Mapping{nil, router.IdentityMapping(c.NumQubits)} {
				res, err := r.Route(ctx, p, initial)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("initial=%v: err = %v, want context.Canceled", initial, err)
				}
				if res != nil {
					t.Fatal("partial result escaped a cancelled route")
				}
			}
		})
	}
}

// TestRoutePreparedCtxCancelled exercises the prepared-path helper
// against every tool with a dead context.
func TestRoutePreparedCtxCancelled(t *testing.T) {
	dev := arch.Grid3x3()
	c := conformCircuit()
	p, err := router.Prepare(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range ctxTools() {
		t.Run(r.Name(), func(t *testing.T) {
			res, err := router.RoutePreparedWithContext(ctx, r, p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatal("partial result escaped a cancelled route")
			}
		})
	}
}

// TestRoutePinnedPlacement asserts that a short initial mapping is
// padded to the device and pinned: every tool that routes from a fixed
// placement reports exactly the padded mapping as its initial one, and
// the result validates.
func TestRoutePinnedPlacement(t *testing.T) {
	dev := arch.Grid3x3()
	c := circuit.New(7)
	rng := rand.New(rand.NewSource(5))
	for len(c.Gates) < 60 {
		a, b := rng.Intn(7), rng.Intn(7)
		if a != b {
			c.MustAppend(circuit.NewCX(a, b))
		}
	}
	p, err := router.Prepare(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	initial := router.Mapping{4, 0, 8, 2, 6, 1, 3}
	want := router.PadMapping(initial, dev.NumQubits())
	for _, r := range ctxTools() {
		t.Run(r.Name(), func(t *testing.T) {
			res, err := r.Route(context.Background(), p, initial)
			if r.Name() == "vf2-ts" {
				if err == nil {
					t.Fatal("vf2-ts accepted a fixed placement it cannot honour")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.InitialMapping) != fmt.Sprint(want) {
				t.Errorf("initial mapping %v, want the padded placement %v", res.InitialMapping, want)
			}
			if err := router.Validate(c, dev, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}
