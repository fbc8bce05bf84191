package fairshare

import "encoding/binary"

// bottleneckHeap is the indexed min-heap allocate() draws bottleneck ports
// from. It is rebuilt on every pass: add gathers the pass's ports that
// can bind — every port two crossings share and each flow's least solo
// port — and init keys and heapifies them. Entries carry their key
// inline, so a sift reads one contiguous array instead of chasing port
// pointers; pos maps a port's pass-local id (Port.id) to its entry. The
// heap is 4-ary: half the depth of a binary heap, and a node's children
// share a cache line or two.
type bottleneckHeap struct {
	entries []heapEntry
	pos     []int32 // pos[id] indexes entries; -1 once the port left
	ports   []*Port // ports[id]
}

// heapEntry orders one port: least share first, then name, then creation
// number. prefix decides most name comparisons without loading the name.
type heapEntry struct {
	share  float64 // residual/float64(unfrozen) when the port was last keyed
	prefix uint64  // Port.prefix
	id     int32
}

// namePrefix packs the first 8 bytes of name, zero-padded, big-endian.
// Wherever two prefixes differ they order like the names themselves;
// equal prefixes fall back to the full comparison.
func namePrefix(name string) uint64 {
	var b [8]byte
	copy(b[:], name)
	return binary.BigEndian.Uint64(b[:])
}

func (h *bottleneckHeap) reset() {
	h.entries = h.entries[:0]
	h.pos = h.pos[:0]
	h.ports = h.ports[:0]
}

// add registers p for this pass and returns its id.
func (h *bottleneckHeap) add(p *Port) int32 {
	id := int32(len(h.ports))
	h.ports = append(h.ports, p)
	return id
}

// init keys every added port with its current share and heapifies.
func (h *bottleneckHeap) init() {
	for id, p := range h.ports {
		h.entries = append(h.entries, heapEntry{
			share:  p.residual / float64(p.unfrozen),
			prefix: p.prefix,
			id:     int32(id),
		})
		h.pos = append(h.pos, int32(id))
	}
	// The last entry's parent is the last one with children.
	for i := (len(h.entries) - 2) / 4; i >= 0 && len(h.entries) > 1; i-- {
		h.down(i)
	}
}

func (h *bottleneckHeap) less(a, b *heapEntry) bool {
	if a.share != b.share {
		return a.share < b.share
	}
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	return nameLess(h.ports[a.id], h.ports[b.id])
}

// nameLess orders two ports whose shares and name prefixes tie: by name,
// then creation number.
func nameLess(a, b *Port) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	return a.seq < b.seq
}

// soloLess is the heap order on two solo ports of one unfrozen flow,
// whose share is residual/1 = capacity.
func soloLess(a, b *Port) bool {
	if a.capacity != b.capacity {
		return a.capacity < b.capacity
	}
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	return nameLess(a, b)
}

// removeAt takes the entry at position i out of the heap.
func (h *bottleneckHeap) removeAt(i int) {
	es := h.entries
	last := len(es) - 1
	h.pos[es[i].id] = -1
	if i != last {
		es[i] = es[last]
		h.pos[es[i].id] = int32(i)
	}
	h.entries = es[:last]
	if i != last {
		h.fix(i)
	}
}

// fix restores the heap order after the key at position i changed in
// either direction.
func (h *bottleneckHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *bottleneckHeap) up(i int) {
	es := h.entries
	e := es[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(&e, &es[parent]) {
			break
		}
		es[i] = es[parent]
		h.pos[es[i].id] = int32(i)
		i = parent
	}
	es[i] = e
	h.pos[e.id] = int32(i)
}

// down sifts the entry at position i toward the leaves and reports
// whether it moved.
func (h *bottleneckHeap) down(i int) bool {
	es := h.entries
	n := len(es)
	e := es[i]
	start := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h.less(&es[j], &es[m]) {
				m = j
			}
		}
		if !h.less(&es[m], &e) {
			break
		}
		es[i] = es[m]
		h.pos[es[i].id] = int32(i)
		i = m
	}
	es[i] = e
	h.pos[e.id] = int32(i)
	return i > start
}
