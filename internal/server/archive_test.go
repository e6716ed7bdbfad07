package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/suite"
)

// archiveFixture is a server over a store holding the tiny suite, which
// no request has made resident yet.
type archiveFixture struct {
	srv    *Server
	url    string // the suite's archive endpoint
	store  *suite.Store
	st     *suite.Suite
	want   []byte // the archive as WriteArchive writes it
	nFiles int64  // the suite's instance files
}

func newArchiveFixture(t *testing.T) *archiveFixture {
	t.Helper()
	store, err := suite.Open(t.TempDir(), suite.StoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var m suite.Manifest
	if err := json.Unmarshal([]byte(tinyManifestJSON), &m); err != nil {
		t.Fatal(err)
	}
	m.SchemaVersion, m.Generator = suite.SchemaVersion, suite.GeneratorID
	st, err := store.EnsureCtx(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := store.WriteArchive(st.Hash, &want); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(store.InstanceDir(st.Hash))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, Options{LRUSuites: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &archiveFixture{
		srv:    srv,
		url:    ts.URL + "/v1/suites/" + st.Hash + "/archive",
		store:  store,
		st:     st,
		want:   want.Bytes(),
		nFiles: int64(len(entries)),
	}
}

func readBody(t *testing.T, r *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestArchiveServedFromMemory: the archive GET returns WriteArchive's
// bytes with a Content-Length that HEAD repeats, builds once through the
// counted instance reads, and then costs the store nothing. Like a 304,
// it sets no X-Cache header.
func TestArchiveServedFromMemory(t *testing.T) {
	f := newArchiveFixture(t)

	before := f.store.Stats().FileReads
	r := get(t, f.url)
	if got := readBody(t, r); r.StatusCode != 200 || !bytes.Equal(got, f.want) {
		t.Fatalf("first GET: status %d, %d bytes, want 200 with WriteArchive's %d bytes", r.StatusCode, len(got), len(f.want))
	}
	if got := f.store.Stats().FileReads - before; got != f.nFiles {
		t.Fatalf("building the archive counted %d store reads, want one per instance file (%d)", got, f.nFiles)
	}
	if got := r.Header.Get("X-Cache"); got != "" {
		t.Fatalf("archive carried X-Cache %q", got)
	}
	wantLen := strconv.Itoa(len(f.want))
	if got := r.Header.Get("Content-Length"); got != wantLen {
		t.Fatalf("GET Content-Length = %q, want %s", got, wantLen)
	}

	before = f.store.Stats().FileReads
	r = get(t, f.url)
	if got := readBody(t, r); !bytes.Equal(got, f.want) {
		t.Fatal("second GET returned different bytes")
	}
	head := do(t, http.MethodHead, f.url, "")
	if got := head.Header.Get("Content-Length"); head.StatusCode != 200 || got != wantLen {
		t.Fatalf("HEAD: status %d, Content-Length %q, want 200 and %s", head.StatusCode, got, wantLen)
	}
	if got := f.store.Stats().FileReads - before; got != 0 {
		t.Fatalf("resident archive GET and HEAD cost %d store reads, want 0", got)
	}
}

// TestArchiveConcurrentFirstGetsBuildOnce: concurrent first requests for
// a non-resident suite share one entry and one build.
func TestArchiveConcurrentFirstGetsBuildOnce(t *testing.T) {
	f := newArchiveFixture(t)

	const clients = 16
	before := f.store.Stats().FileReads
	start := make(chan struct{})
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, err := http.Get(f.url)
			if err != nil {
				t.Error(err)
				return
			}
			defer r.Body.Close()
			if r.StatusCode != 200 {
				t.Errorf("client %d: status %d", i, r.StatusCode)
			}
			bodies[i], err = io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, f.want) {
			t.Fatalf("client %d got %d bytes that differ from WriteArchive's %d", i, len(b), len(f.want))
		}
	}
	if got := f.store.Stats().FileReads - before; got != f.nFiles {
		t.Fatalf("%d concurrent first GETs counted %d store reads, want one build's %d", clients, got, f.nFiles)
	}
}

// TestArchiveFailedBuildAnswers500: a build that fails answers 500 with
// an error body and no caching headers instead of a truncated 200, and
// caches nothing, so the request after the fault is repaired succeeds.
func TestArchiveFailedBuildAnswers500(t *testing.T) {
	f := newArchiveFixture(t)
	path := filepath.Join(f.store.InstanceDir(f.st.Hash), f.st.Instances[0].Base+".qasm")
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	r := get(t, f.url)
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(readBody(t, r), &body); r.StatusCode != 500 || err != nil || body.Error == "" {
		t.Fatalf("archive with a missing instance file: status %d, body error %q (%v), want 500 with an error", r.StatusCode, body.Error, err)
	}
	if r.Header.Get("ETag") != "" || r.Header.Get("Cache-Control") != "" {
		t.Fatal("500 carried caching headers")
	}

	if err := os.WriteFile(path, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	r = get(t, f.url)
	if got := readBody(t, r); r.StatusCode != 200 || !bytes.Equal(got, f.want) {
		t.Fatalf("after repair: status %d, %d bytes, want 200 with WriteArchive's %d bytes", r.StatusCode, len(got), len(f.want))
	}
}

// TestArchiveOverBudgetStreams: an archive that does not fit its entry's
// budget streams correct bytes from disk, pins nothing, and later
// requests stream without trying to build again.
func TestArchiveOverBudgetStreams(t *testing.T) {
	f := newArchiveFixture(t)
	cs := f.srv.admit(f.st)
	cs.mu.Lock()
	cs.budget = int64(len(f.want)) - 1
	cs.mu.Unlock()

	for i := 0; i < 2; i++ {
		before := f.store.Stats().FileReads
		r := get(t, f.url)
		if got := readBody(t, r); r.StatusCode != 200 || !bytes.Equal(got, f.want) {
			t.Fatalf("GET %d over budget: status %d, %d bytes, want 200 with WriteArchive's %d bytes", i, r.StatusCode, len(got), len(f.want))
		}
		if reads := f.store.Stats().FileReads - before; i > 0 && reads != f.nFiles {
			t.Fatalf("GET %d over budget counted %d store reads, want one streaming pass's %d", i, reads, f.nFiles)
		}
	}
	cs.archiveMu.Lock()
	over, pinned := cs.archiveOver, cs.archive
	cs.archiveMu.Unlock()
	if !over || pinned != nil || cs.cachedBytes() != 0 {
		t.Fatalf("over-budget entry: archiveOver %v, %d archive bytes, %d cached bytes; want true, 0, 0", over, len(pinned), cs.cachedBytes())
	}
}
