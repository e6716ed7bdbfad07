package harness

import (
	"context"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/mlqls"
	"repro/internal/qmap"
	"repro/internal/router"
)

// TestWorkerBudgetSeamDeterministic pins the shared worker-budget seam
// end to end: a sweep whose budget lends router-internal workers (qmap
// expansion gang, ml-qls's SABRE trial pool) must aggregate exactly the
// cells of a sweep whose budget lends nothing. Run under -race in CI,
// this is the data-race coverage of the harness→router borrow path.
func TestWorkerBudgetSeamDeterministic(t *testing.T) {
	// Nine slots: a one-worker sweep lends the other eight to its
	// routers, a nine-worker sweep keeps all nine for its own pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(9))
	store, st := ensureSuite(t, smallSuite())
	tools := []ToolSpec{
		{"qmap", func(seed int64) router.Router {
			return qmap.New(qmap.Options{MaxNodes: 2000, Seed: seed, Workers: 4})
		}},
		{"ml-qls", func(seed int64) router.Router {
			return mlqls.New(mlqls.Options{Seed: seed})
		}},
	}
	run := func(workers int) []Cell {
		fig, err := RunStoredEvalCtx(context.Background(), store, st, tools, StoredEvalOptions{
			Seed: 5, Workers: workers, Key: "workers=" + strconv.Itoa(workers),
		})
		if err != nil {
			t.Fatal(err)
		}
		return fig.Cells
	}
	budgeted := run(1) // budget lends up to 8 internal workers
	serial := run(9)   // budget lends nothing: every router runs serially
	if !reflect.DeepEqual(serial, budgeted) {
		t.Errorf("cells diverge between budgeted and serial sweeps:\nserial:   %+v\nbudgeted: %+v",
			serial, budgeted)
	}
}
