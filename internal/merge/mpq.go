package merge

import (
	"alm/internal/mr"
)

// MPQ is the Minimum Priority Queue the paper's ReduceTask uses in its
// reduce stage: the intermediate file (segment) whose next record has the
// minimum key sits at the root; Next extracts records in globally sorted
// order. The queue is resumable — its per-segment positions can be
// captured (Positions) and an identical MPQ reconstructed later, which is
// exactly what ALG logs and SFM replays.
type MPQ struct {
	cmp        mr.KeyComparator
	segs       []*Segment
	pos        []int // next unread index per segment
	h          mpqHeap
	startTotal int // sum of resume offsets at construction
}

// mpqEntry is a segment's next record. Equal keys pop in segment order:
// less breaks ties on segIdx, so the merge is deterministic.
type mpqEntry struct {
	segIdx int
	rec    mr.Record
}

// mpqHeap is a typed binary min-heap. The merge loop pushes and pops one
// entry per record; routing those through container/heap boxed every
// entry into an interface value, which made the k-way merge one of the
// simulator's top allocation sites.
type mpqHeap struct {
	cmp     mr.KeyComparator
	entries []mpqEntry
}

func (h *mpqHeap) Len() int { return len(h.entries) }

func (h *mpqHeap) less(a, b *mpqEntry) bool {
	c := h.cmp(a.rec.Key, b.rec.Key)
	if c != 0 {
		return c < 0
	}
	return a.segIdx < b.segIdx
}

func (h *mpqHeap) push(e mpqEntry) {
	h.entries = append(h.entries, e)
	h.up(len(h.entries) - 1)
}

func (h *mpqHeap) pop() mpqEntry {
	es := h.entries
	n := len(es) - 1
	top := es[0]
	es[0] = es[n]
	es[n] = mpqEntry{}
	h.entries = es[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h *mpqHeap) init() {
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *mpqHeap) up(i int) {
	es := h.entries
	e := es[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(&e, &es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = e
}

func (h *mpqHeap) down(i int) {
	es := h.entries
	n := len(es)
	e := es[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(&es[r], &es[child]) {
			child = r
		}
		if !h.less(&es[child], &e) {
			break
		}
		es[i] = es[child]
		i = child
	}
	es[i] = e
}

// NewMPQ builds a queue over the segments, resuming from start positions
// when start is non-nil (it must then have len(segments) entries).
func NewMPQ(cmp mr.KeyComparator, segments []*Segment, start Positions) *MPQ {
	if start != nil && len(start) != len(segments) {
		panic("merge: start positions length mismatch")
	}
	q := &MPQ{
		cmp:  cmp,
		segs: segments,
		pos:  make([]int, len(segments)),
		h:    mpqHeap{cmp: cmp, entries: make([]mpqEntry, 0, len(segments))},
	}
	for i := range segments {
		if start != nil {
			q.pos[i] = start[i]
			q.startTotal += start[i]
		}
		if q.pos[i] < len(segments[i].Records) {
			q.h.entries = append(q.h.entries, mpqEntry{segIdx: i, rec: segments[i].Records[q.pos[i]]})
			q.pos[i]++
		}
	}
	q.h.init()
	return q
}

// Next pops the globally minimal record. ok is false when the queue is
// exhausted.
func (q *MPQ) Next() (rec mr.Record, ok bool) {
	rec, _, ok = q.NextFrom()
	return rec, ok
}

// NextFrom is Next but additionally reports which segment the record came
// from, which resumable consumers (GroupCursor) need to maintain exact
// boundary positions.
func (q *MPQ) NextFrom() (rec mr.Record, segIdx int, ok bool) {
	if q.h.Len() == 0 {
		return mr.Record{}, -1, false
	}
	e := q.h.pop()
	i := e.segIdx
	if q.pos[i] < len(q.segs[i].Records) {
		q.h.push(mpqEntry{segIdx: i, rec: q.segs[i].Records[q.pos[i]]})
		q.pos[i]++
	}
	return e.rec, i, true
}

// Peek returns the minimal record without consuming it.
func (q *MPQ) Peek() (rec mr.Record, ok bool) {
	if q.h.Len() == 0 {
		return mr.Record{}, false
	}
	return q.h.entries[0].rec, true
}

// Exhausted reports whether all records have been consumed.
func (q *MPQ) Exhausted() bool { return q.h.Len() == 0 }

// Positions snapshots the per-segment offsets of the *next unconsumed*
// record: reconstructing an MPQ with these positions resumes the merge
// exactly where this one stands. Records currently buffered at the heap
// roots are counted as unconsumed.
func (q *MPQ) Positions() Positions {
	return q.PositionsInto(nil)
}

// PositionsInto is Positions reusing dst's backing array when it has the
// capacity — the GroupCursor snapshots positions after every group, and a
// fresh slice per group dominated its allocation profile.
func (q *MPQ) PositionsInto(dst Positions) Positions {
	p := append(dst[:0], q.pos...)
	// Entries sitting in the heap have been read from their segment but
	// not yet delivered; give them back.
	for i := range q.h.entries {
		p[q.h.entries[i].segIdx]--
	}
	return p
}

// Consumed returns how many real records have been delivered by Next
// since construction (not counting the resume offset).
func (q *MPQ) Consumed() int {
	total := 0
	for _, p := range q.Positions() {
		total += p
	}
	return total - q.startTotal
}
