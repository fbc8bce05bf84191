package sim

// timerLess orders timers by (at, seq): time first, scheduling order for
// ties. Every heap and every bucket drain in the wheel reduces to this
// key, which is what makes seeded runs bit-for-bit reproducible.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerHeap is a typed binary min-heap over (at, seq), equivalent to
// container/heap but without the interface indirection. Timer.idx fields
// track positions so remove can sift in O(log n); loc stamps the tag the
// heap's timers carry, letting Timer.Stop route a removal back to the
// structure that holds it. The wheel uses two — the imminent "ready"
// buffer and the beyond-horizon overflow store.
type timerHeap struct {
	loc uint8
	s   []*Timer
}

func (h *timerHeap) len() int { return len(h.s) }

func (h *timerHeap) peek() *Timer {
	if len(h.s) == 0 {
		return nil
	}
	return h.s[0]
}

func (h *timerHeap) push(t *Timer) {
	t.loc = h.loc
	t.idx = int32(len(h.s))
	h.s = append(h.s, t)
	h.siftUp(int(t.idx))
}

func (h *timerHeap) pop() *Timer {
	s := h.s
	n := len(s) - 1
	top := s[0]
	s[0], s[n] = s[n], s[0]
	s[0].idx = 0
	s[n] = nil
	h.s = s[:n]
	if n > 0 {
		h.siftDown(0)
	}
	top.idx = -1
	top.loc = locNone
	return top
}

// remove deletes t from its tracked position.
func (h *timerHeap) remove(t *Timer) {
	s := h.s
	i := int(t.idx)
	n := len(s) - 1
	if i != n {
		s[i], s[n] = s[n], s[i]
		s[i].idx = int32(i)
		s[n] = nil
		h.s = s[:n]
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	} else {
		s[n] = nil
		h.s = s[:n]
	}
	t.idx = -1
	t.loc = locNone
}

func (h *timerHeap) siftUp(i int) {
	s := h.s
	t := s[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !timerLess(t, s[parent]) {
			break
		}
		s[i] = s[parent]
		s[i].idx = int32(i)
		i = parent
	}
	s[i] = t
	t.idx = int32(i)
}

// siftDown restores heap order below i; it reports whether the element
// moved (mirrors container/heap's down, which remove uses to decide
// whether an up-sift is needed).
func (h *timerHeap) siftDown(i int) bool {
	s := h.s
	n := len(s)
	t := s[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && timerLess(s[r], s[child]) {
			child = r
		}
		if !timerLess(s[child], t) {
			break
		}
		s[i] = s[child]
		s[i].idx = int32(i)
		i = child
	}
	s[i] = t
	t.idx = int32(i)
	return i > start
}
