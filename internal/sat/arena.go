package sat

// Flat clause storage in the style of MiniSat's region allocator. All
// clause literals live in one contiguous []uint32 arena addressed by
// uint32 clause references, so the solver's hot loops chase no
// per-clause pointers and the garbage collector never scans a clause
// database of small heap objects.

import "math"

// plit is the solver-internal packed literal: variable v (1-based)
// becomes 2v for +v and 2v+1 for -v. Packed literals index the flat
// watch table and the per-literal value table directly, so propagation
// never hashes and never branches on sign.
type plit uint32

func packLit(l Lit) plit {
	if l > 0 {
		return plit(l) << 1
	}
	return plit(-l)<<1 | 1
}

func (p plit) neg() plit { return p ^ 1 }

func (p plit) varIdx() int { return int(p >> 1) }

func (p plit) pos() bool { return p&1 == 0 }

// cref addresses a clause in the arena: the index of its header word.
type cref uint32

// crefUndef is the nil clause reference.
const crefUndef cref = ^cref(0)

// crefBinary marks a watcher of a binary clause. Its blocker is the
// clause's other literal, so propagation settles it without reading the
// arena. alloc keeps every clause reference below this bit.
const crefBinary cref = 1 << 31

// Clause layout in the arena, addressed by a cref c:
//
//	data[c-2]   LBD        (learned clauses only)
//	data[c-1]   activity   (learned clauses only, float32 bits)
//	data[c]     header: size<<hdrSizeShift | flag bits
//	data[c+1…]  literals   (size packed literals)
//
// so every clause's literals start right after its header. Deleted
// clauses stay in place — their words are accounted in wasted — until
// garbage collection compacts the arena. A relocated clause stores its
// forwarding cref in data[c+1], which always exists because unit
// clauses are never stored (they are enqueued directly).
const (
	hdrLearned uint32 = 1 << 0
	hdrDeleted uint32 = 1 << 1
	hdrMoved   uint32 = 1 << 2
	hdrLocked  uint32 = 1 << 3

	hdrSizeShift = 4
)

type clauseArena struct {
	data   []uint32
	wasted int
}

// alloc stores a clause and returns its reference. A full arena
// doubles rather than growing by append's ~1.25x for large slices. An
// encoding adds its clauses one by one, and with 1.25x growth the copies
// of the arena were nearly half the bytes a certification allocated.
func (a *clauseArena) alloc(lits []plit, learned bool) cref {
	if need := len(a.data) + 3 + len(lits); need > cap(a.data) {
		grown := make([]uint32, len(a.data), max(2*cap(a.data), need))
		copy(grown, a.data)
		a.data = grown
	}
	hdr := uint32(len(lits)) << hdrSizeShift
	if learned {
		a.data = append(a.data, 0, 0)
		hdr |= hdrLearned
	}
	if uint64(len(a.data)+1+len(lits)) >= uint64(crefBinary) {
		panic("sat: clause arena exceeds 2^31 words")
	}
	c := cref(len(a.data))
	a.data = append(a.data, hdr)
	for _, p := range lits {
		a.data = append(a.data, uint32(p))
	}
	return c
}

func (a *clauseArena) size(c cref) int     { return int(a.data[c] >> hdrSizeShift) }
func (a *clauseArena) learned(c cref) bool { return a.data[c]&hdrLearned != 0 }

// lits returns the clause's literal window. Propagation reorders it in
// place (watched-literal maintenance), which is why it is a live slice
// into the arena rather than a copy.
func (a *clauseArena) lits(c cref) []uint32 {
	return a.data[c+1 : int(c)+1+int(a.data[c]>>hdrSizeShift)]
}

func (a *clauseArena) lbd(c cref) int           { return int(a.data[c-2]) }
func (a *clauseArena) setLBD(c cref, v int)     { a.data[c-2] = uint32(v) }
func (a *clauseArena) act(c cref) float32       { return math.Float32frombits(a.data[c-1]) }
func (a *clauseArena) setAct(c cref, v float32) { a.data[c-1] = math.Float32bits(v) }

// first is the index of the clause's first word: its LBD for a learned
// clause, its header otherwise.
func (a *clauseArena) first(c cref) int {
	if a.learned(c) {
		return int(c) - 2
	}
	return int(c)
}

// words is the clause's total footprint in the arena.
func (a *clauseArena) words(c cref) int {
	return int(c) + 1 + a.size(c) - a.first(c)
}

// free marks the clause deleted; its space is reclaimed by the next
// garbage collection. The caller must already have detached it.
func (a *clauseArena) free(c cref) {
	a.wasted += a.words(c)
	a.data[c] |= hdrDeleted
}
