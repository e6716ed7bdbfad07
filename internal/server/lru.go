package server

import (
	"container/list"
	"errors"
	"io"
	"sync"

	"repro/internal/suite"
)

// maxCachedBytesPerSuite bounds the bytes one resident suite may pin in
// memory: its instance files plus its archive. The LRU caps suite count;
// this caps what each suite costs, so total cache memory is LRUSuites ×
// this bound no matter how large the suites are. Files, and an archive,
// beyond the budget are served straight from disk.
const maxCachedBytesPerSuite = 64 << 20

// cachedSuite is one resident suite: its index plus lazily loaded
// instance file bytes and archive, capped at budget. Safe for concurrent
// use, including while being evicted — an in-flight request holding the
// entry keeps serving from it after eviction; only the LRU's reference
// is dropped.
type cachedSuite struct {
	suite *suite.Suite
	// read loads one instance file's bytes from the store (which counts
	// the read); memory hits never touch it.
	read func(name string) ([]byte, error)
	// writeArchive writes the suite's archive from the store: once to
	// build the cached copy, and on every request once the archive is
	// known not to fit the budget.
	writeArchive func(w io.Writer) error
	// budget is maxCachedBytesPerSuite; a field so tests can shrink it.
	budget int64

	mu    sync.Mutex
	files map[string][]byte
	bytes int64 // files plus archive

	// archiveMu serializes archive builds, so concurrent first requests
	// build once. It is taken before mu, never after.
	archiveMu   sync.Mutex
	archive     []byte
	archiveOver bool // the archive does not fit; requests stream it
}

// file returns the named instance file's bytes, reading them through the
// store and caching them while the suite's byte budget lasts.
func (c *cachedSuite) file(name string) ([]byte, error) {
	c.mu.Lock()
	if b, ok := c.files[name]; ok {
		c.mu.Unlock()
		return b, nil
	}
	c.mu.Unlock()
	b, err := c.read(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.files[name]; !ok && c.bytes+int64(len(b)) <= c.budget {
		c.files[name] = b
		c.bytes += int64(len(b))
	}
	c.mu.Unlock()
	return b, nil
}

// archiveBytes returns the suite's archive, building it on first use and
// caching it while the suite's byte budget lasts. A nil slice with a nil
// error means the archive does not fit: the caller streams it with
// writeArchive. A failed build caches nothing, so the next call retries.
func (c *cachedSuite) archiveBytes() ([]byte, error) {
	c.archiveMu.Lock()
	defer c.archiveMu.Unlock()
	if c.archive != nil || c.archiveOver {
		return c.archive, nil
	}
	c.mu.Lock()
	buf := &cappedBuffer{limit: c.budget - c.bytes}
	c.mu.Unlock()
	if err := c.writeArchive(buf); err != nil {
		if buf.over {
			c.archiveOver = true
			return nil, nil
		}
		return nil, err
	}
	b := buf.b
	if cap(b) > len(b) {
		b = make([]byte, len(buf.b)) // pin exactly what the budget is charged
		copy(b, buf.b)
	}
	c.mu.Lock()
	fits := c.bytes+int64(len(b)) <= c.budget
	if fits {
		c.bytes += int64(len(b))
	}
	c.mu.Unlock()
	if !fits {
		// Instance files took the room during the build, and an entry's
		// bytes never shrink: serve this copy, cache nothing.
		c.archiveOver = true
		return b, nil
	}
	c.archive = b
	return b, nil
}

// errArchiveOverBudget stops an archive build that outgrew its budget.
var errArchiveOverBudget = errors.New("server: archive exceeds the suite's cache budget")

// cappedBuffer collects a write stream of at most limit bytes, never
// holding more capacity than that; a write past the limit fails and sets
// over.
type cappedBuffer struct {
	b     []byte
	limit int64
	over  bool
}

func (w *cappedBuffer) Write(p []byte) (int, error) {
	n := int64(len(w.b)) + int64(len(p))
	if n > w.limit {
		w.over = true
		return 0, errArchiveOverBudget
	}
	if n > int64(cap(w.b)) {
		grown := make([]byte, len(w.b), min(max(2*int64(cap(w.b)), n), w.limit))
		copy(grown, w.b)
		w.b = grown
	}
	w.b = append(w.b, p...)
	return len(p), nil
}

// cachedBytes reports the instance-file and archive bytes this entry
// currently pins.
func (c *cachedSuite) cachedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// suiteLRU keeps the most recently used suites in memory, bounded by
// suite count. Evicting a suite drops its cached bytes; the disk store
// remains authoritative.
type suiteLRU struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recent; values are hashes
	byKey map[string]*list.Element // hash -> element
	data  map[string]*cachedSuite
}

func newSuiteLRU(capacity int) *suiteLRU {
	return &suiteLRU{
		cap:   capacity,
		order: list.New(),
		byKey: map[string]*list.Element{},
		data:  map[string]*cachedSuite{},
	}
}

// get returns the cached suite and marks it most recently used.
func (l *suiteLRU) get(hash string) (*cachedSuite, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.byKey[hash]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return l.data[hash], true
}

// put inserts (or refreshes) a suite, evicting the least recently used
// entry beyond capacity. It returns the resident entry, which may be a
// previously inserted one under the same hash.
func (l *suiteLRU) put(hash string, cs *cachedSuite) *cachedSuite {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.byKey[hash]; ok {
		l.order.MoveToFront(el)
		return l.data[hash]
	}
	l.byKey[hash] = l.order.PushFront(hash)
	l.data[hash] = cs
	for l.order.Len() > l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		h := oldest.Value.(string)
		delete(l.byKey, h)
		delete(l.data, h)
	}
	return cs
}

// len reports the number of resident suites.
func (l *suiteLRU) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// totalBytes sums the bytes pinned across resident suites.
// Entries are snapshotted under the LRU lock, then summed under each
// entry's own lock, so the locks never nest.
func (l *suiteLRU) totalBytes() int64 {
	l.mu.Lock()
	entries := make([]*cachedSuite, 0, len(l.data))
	for _, cs := range l.data {
		entries = append(entries, cs)
	}
	l.mu.Unlock()
	var n int64
	for _, cs := range entries {
		n += cs.cachedBytes()
	}
	return n
}
