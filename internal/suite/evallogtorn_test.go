package suite

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// A kill torn exactly at the row boundary — the final row's bytes are
// all present but the trailing newline is lost at the fsync boundary —
// must lose nothing: every row survives the reopen, and later appends
// start on a fresh line instead of concatenating onto the last row (the
// failure mode that would silently drop two rows at the reopen after
// this one).
func TestEvalLogNewlineBoundaryTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nl.jsonl")
	log, err := OpenEvalLog(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Suite: "h", Instance: "a", Tool: "t1", Optimal: 1, Swaps: 2, Ratio: 2},
		{Suite: "h", Instance: "b", Tool: "t1", Optimal: 1, Swaps: 1, Ratio: 1},
	}
	for _, r := range rows {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	log2, err := OpenEvalLog(path)
	if err != nil {
		t.Fatalf("newline-boundary tear broke reopen: %v", err)
	}
	got := log2.Rows()
	if len(got) != len(rows) {
		t.Fatalf("recovered %d rows, want %d (no row may be dropped)", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Errorf("row %d: got %+v want %+v", i, got[i], rows[i])
		}
	}
	if !log2.Done("h", "t1", "b") {
		t.Error("boundary-torn row lost its Done mark; it would re-run and duplicate")
	}
	next := Row{Suite: "h", Instance: "c", Tool: "t1", Optimal: 1, Swaps: 3, Ratio: 3}
	if err := log2.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	// The decisive reopen: if the newline was not restored, rows b and c
	// fused into one corrupt line and both would vanish here.
	log3, err := OpenEvalLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	final := log3.Rows()
	if len(final) != 3 || final[2] != next {
		t.Fatalf("after boundary tear + append: rows = %+v, want the original 2 plus %+v", final, next)
	}
	seen := map[string]int{}
	for _, r := range final {
		seen[r.key()]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("triple %q recorded %d times, want exactly 1", k, n)
		}
	}
}

// A checksum index torn mid-write must surface as a verification error —
// never a silently "verified" suite or a panic.
func TestVerifyChecksumsDetectsTornIndex(t *testing.T) {
	store := openStore(t)
	st, err := store.EnsureCtx(context.Background(), tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChecksums(st.Hash); err != nil {
		t.Fatalf("fresh suite fails verification: %v", err)
	}
	sums := filepath.Join(st.Dir, "checksums.json")
	info, err := os.Stat(sums)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(sums, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyChecksums(st.Hash); err == nil {
		t.Error("torn checksum index verified clean")
	}
}
