package server

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/suite"
)

// bigFiles builds n in-memory "instance files" sized so that only fit of
// them fit inside a byte budget. The backing arrays are shared by every
// reader, so the test's real memory footprint is one set of buffers no
// matter how many cache entries exist.
func bigFiles(n, fit int, budget int64) map[string][]byte {
	size := budget/int64(fit) + 1
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		b := make([]byte, size)
		b[0] = byte(i + 1) // fingerprint for integrity checks
		files[fmt.Sprintf("f%02d.qasm", i)] = b
	}
	return files
}

// entryOver builds a cache entry over in-memory files whose archive is
// the given bytes, written in tar-sized pieces. reads, when non-nil,
// counts file reads and archive writes.
func entryOver(files map[string][]byte, archive []byte, budget int64, hash string, reads *atomic.Int64) *cachedSuite {
	return &cachedSuite{
		suite: &suite.Suite{Hash: hash},
		read: func(name string) ([]byte, error) {
			if reads != nil {
				reads.Add(1)
			}
			b, ok := files[name]
			if !ok {
				return nil, fmt.Errorf("no file %s", name)
			}
			return b, nil
		},
		writeArchive: func(w io.Writer) error {
			if reads != nil {
				reads.Add(1)
			}
			for b := archive; len(b) > 0; {
				n := min(len(b), 512)
				if _, err := w.Write(b[:n]); err != nil {
					return err
				}
				b = b[n:]
			}
			return nil
		},
		budget: budget,
		files:  map[string][]byte{},
	}
}

// TestLRUByteBudgetUnderConcurrentHammer drives the suite LRU and its
// per-entry byte accounting from many goroutines at once — gets, puts
// (with eviction), reads of files and archive builds that together
// overflow the per-suite budget — while a watchdog goroutine
// continuously asserts that no entry ever pins more than its budget.
// Run it under -race: the interleavings are the test.
func TestLRUByteBudgetUnderConcurrentHammer(t *testing.T) {
	const (
		budget  = 64 << 10
		nFiles  = 5
		fitN    = 4 // files per suite that fit the budget; the 5th must be refused
		nHashes = 8
		lruCap  = 3
		workers = 16
		iters   = 150
	)
	files := bigFiles(nFiles, fitN, budget)
	// The archive takes one file's room, so whether it is cached depends
	// on how many files reached the entry first.
	archive := bytes.Repeat([]byte{0xA5}, budget/fitN+1)
	var reads, fromMemory atomic.Int64
	l := newSuiteLRU(lruCap)

	stop := make(chan struct{})
	var watchdog sync.WaitGroup
	watchdog.Add(1)
	go func() {
		defer watchdog.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.mu.Lock()
			entries := make([]*cachedSuite, 0, len(l.data))
			for _, cs := range l.data {
				entries = append(entries, cs)
			}
			n := l.order.Len()
			l.mu.Unlock()
			if n > lruCap {
				t.Errorf("LRU holds %d suites, cap is %d", n, lruCap)
			}
			for _, cs := range entries {
				if b := cs.cachedBytes(); b > budget {
					t.Errorf("entry %s pins %d bytes, budget is %d", cs.suite.Hash, b, budget)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				hash := fmt.Sprintf("suite-%02d", (w+i)%nHashes)
				cs, ok := l.get(hash)
				if !ok {
					cs = l.put(hash, entryOver(files, archive, budget, hash, &reads))
				}
				if i%4 == 3 {
					b, err := cs.archiveBytes()
					if err == nil && b == nil {
						var streamed bytes.Buffer
						err = cs.writeArchive(&streamed)
						b = streamed.Bytes()
					} else if err == nil {
						fromMemory.Add(1)
					}
					if err != nil || !bytes.Equal(b, archive) {
						t.Errorf("archive of %s: %d bytes, %v; want the %d archive bytes", hash, len(b), err, len(archive))
						return
					}
					continue
				}
				name := fmt.Sprintf("f%02d.qasm", (w*iters+i)%nFiles)
				b, err := cs.file(name)
				if err != nil {
					t.Errorf("file %s: %v", name, err)
					return
				}
				if want := byte((w*iters+i)%nFiles + 1); b[0] != want {
					t.Errorf("file %s fingerprint = %d, want %d", name, b[0], want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	watchdog.Wait()

	if total, fleet := l.totalBytes(), int64(lruCap)*budget; total > fleet {
		t.Fatalf("LRU pins %d bytes total, fleet budget is %d", total, fleet)
	}
	for _, cs := range l.data {
		cs.archiveMu.Lock()
		cs.mu.Lock()
		pinned := int64(len(cs.archive))
		for _, b := range cs.files {
			pinned += int64(len(b))
		}
		if pinned != cs.bytes {
			t.Errorf("entry %s pins %d file and archive bytes but counts %d", cs.suite.Hash, pinned, cs.bytes)
		}
		cs.mu.Unlock()
		cs.archiveMu.Unlock()
	}
	if reads.Load() == 0 {
		t.Fatal("hammer never read through to the store")
	}
	if fromMemory.Load() == 0 {
		t.Fatal("hammer never served an archive from memory")
	}
}

// TestLRUEvictionDuringActiveStream pins the eviction safety contract: a
// request that resolved its cache entry keeps serving from it even after
// the LRU evicts that suite — eviction only drops the LRU's reference,
// never the bytes under an in-flight response.
func TestLRUEvictionDuringActiveStream(t *testing.T) {
	files := map[string][]byte{"a.qasm": []byte("OPENQASM 2.0;")}
	l := newSuiteLRU(1)

	held := l.put("victim", entryOver(files, nil, maxCachedBytesPerSuite, "victim", nil))
	if _, err := held.file("a.qasm"); err != nil {
		t.Fatal(err)
	}

	// Evict the held suite by inserting past capacity, concurrently with
	// continued reads through the held reference.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			l.put(fmt.Sprintf("filler-%d", i), entryOver(files, nil, maxCachedBytesPerSuite, "filler", nil))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b, err := held.file("a.qasm")
			if err != nil || string(b) != "OPENQASM 2.0;" {
				t.Errorf("read through evicted entry: %q, %v", b, err)
				return
			}
		}
	}()
	wg.Wait()

	if _, ok := l.get("victim"); ok {
		t.Fatal("victim still resident; eviction never happened")
	}
	if b, err := held.file("a.qasm"); err != nil || string(b) != "OPENQASM 2.0;" {
		t.Fatalf("post-eviction read through held entry: %q, %v", b, err)
	}
}
