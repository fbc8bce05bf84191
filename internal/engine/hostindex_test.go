package engine

import (
	"runtime"
	"slices"
	"testing"
)

// allocBytes reports the bytes f allocates, read from the runtime's
// cumulative TotalAlloc around one call on the calling goroutine.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A reducer's host index must grow with nodes + maps, not nodes × maps:
// at 4,000 nodes and 8,000 maps the list form takes about 83 KB, where a
// bitset of all maps per node took about 4.1 MB.
func TestHostIndexSizeLinear(t *testing.T) {
	const limit = 128 << 10
	var ix *hostIndex
	got := allocBytes(func() { ix = newHostIndex(4000, 8000) })
	runtime.KeepAlive(ix)
	t.Logf("newHostIndex(4000, 8000) allocated %d bytes", got)
	if got >= limit {
		t.Fatalf("newHostIndex(4000, 8000) allocated %d bytes, want < %d", got, limit)
	}
}

// FuzzHostIndex drives a hostIndex through a script of moves and clears
// and checks it after every step against a map-per-host oracle: each
// host's list holds exactly the oracle's maps in ascending order, live
// holds exactly the non-empty lists, and serveOf and pending agree.
//
// Input: byte 0 picks the node count (1–16), byte 1 the map count
// (1–130, so the bitsets span three words), then 3 bytes per step:
// kind, map, host. Kind%4 == 0 delivers the map (clears it from pending
// and unfiles it, as markCopied does); otherwise the map moves to host
// byte%(nodes+1)-1, -1 meaning "no serving host", and a delivered map
// stays unfiled, as reindexMap leaves it.
func FuzzHostIndex(f *testing.F) {
	f.Add([]byte{3, 10, 1, 0, 1, 1, 1, 1, 1, 2, 2, 0, 1, 3})
	f.Add([]byte{15, 129, 1, 128, 4, 1, 64, 4, 1, 63, 4, 0, 64, 0, 2, 128, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nodes, maps := 1+int(data[0])%16, 1+int(data[1])%130
		ix := newHostIndex(nodes, maps)
		oracle := make([]map[int]bool, nodes)
		for n := range oracle {
			oracle[n] = map[int]bool{}
		}
		serve := make([]int32, maps)
		pending := make([]bool, maps)
		for m := range maps {
			serve[m] = -1
			pending[m] = true
			ix.pending.set(m)
		}
		for step, ops := 0, data[2:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
			m := int(ops[1]) % maps
			nh := int32(int(ops[2])%(nodes+1) - 1)
			if ops[0]%4 == 0 {
				pending[m] = false
				ix.pending.clear(m)
			}
			if !pending[m] {
				nh = -1
			}
			if old := serve[m]; old >= 0 {
				delete(oracle[old], m)
			}
			if nh >= 0 {
				oracle[nh][m] = true
			}
			serve[m] = nh
			ix.move(m, nh)

			if msg := ix.check(); msg != "" {
				t.Fatalf("step %d: %s", step, msg)
			}
			if !slices.Equal(ix.serveOf, serve) {
				t.Fatalf("step %d: serveOf %v, oracle %v", step, ix.serveOf, serve)
			}
			for mm, p := range pending {
				if ix.pending.has(mm) != p {
					t.Fatalf("step %d: pending[%d] = %v, oracle %v", step, mm, ix.pending.has(mm), p)
				}
			}
			for n := range nodes {
				want := make([]int, 0, len(oracle[n]))
				for mm := range oracle[n] {
					want = append(want, mm)
				}
				slices.Sort(want)
				if got := ix.appendOn(nil, n); !slices.Equal(got, want) {
					t.Fatalf("step %d: host %d lists %v, oracle %v", step, n, got, want)
				}
				if ix.live.has(n) != (len(want) > 0) {
					t.Fatalf("step %d: live[%d] = %v with %d maps", step, n, ix.live.has(n), len(want))
				}
			}
		}
	})
}
