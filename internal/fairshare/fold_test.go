package fairshare

import (
	"testing"
)

// The solo fold keys, per flow, only the least of the ports that flow
// alone crosses once (allocate, visit). Each script below builds the
// component where one choice in the fold decides, and runs it through
// the differential rig: rates, rounds and keyed ports must match the
// oracle bit for bit after every step. want is flow 0's rate after the
// last step, worked out by hand.
func TestSoloFoldMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		ops  []op
		want float64
	}{{
		// f's solo ports a and c tie with the shared port b on share
		// (300) and on the 8-byte prefix "node-01/". The least solo
		// port, a, surfaces first and freezes f alone: two rounds. Had
		// c been keyed instead, b would freeze all three flows in one.
		name: "tie on capacity and prefix",
		ops: []op{
			{kind: opNewPort, name: "node-01/disk-a", value: 300},
			{kind: opNewPort, name: "node-01/disk-c", value: 300},
			{kind: opNewPort, name: "node-01/disk-b", value: 900},
			{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{1, 0, 2}},
			{kind: opStartFlow, name: "g", bytes: 1e6, ports: []int{2}},
			{kind: opStartFlow, name: "h", bytes: 1e6, ports: []int{2}},
		},
		want: 300,
	}, {
		// As above with one name for all three ports: the creation
		// number alone puts the solo port made first ahead of the
		// shared one, and the solo port made last behind it.
		name: "same name, seq decides",
		ops: []op{
			{kind: opNewPort, name: "nic", value: 300},
			{kind: opNewPort, name: "nic", value: 900},
			{kind: opNewPort, name: "nic", value: 300},
			{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{2, 0, 1}},
			{kind: opStartFlow, name: "g", bytes: 1e6, ports: []int{1}},
			{kind: opStartFlow, name: "h", bytes: 1e6, ports: []int{1}},
		},
		want: 300,
	}, {
		// f lists p twice: one flow, two crossings, so p is keyed with
		// unfrozen 2 (share 50) although no other flow crosses it. First
		// the solo port s (40) binds; once s is raised, p does, ahead of
		// the least solo port t (80).
		name: "port listed twice by one flow",
		ops: []op{
			{kind: opNewPort, name: "p", value: 100},
			{kind: opNewPort, name: "s", value: 40},
			{kind: opNewPort, name: "t", value: 80},
			{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{2, 0, 1, 0}},
			{kind: opSetCapacity, port: 1, value: 1000},
		},
		want: 50,
	}, {
		// Each capacity change touches one of f's solo ports and
		// nothing else, so that port is the walk's root: the pass
		// reaches f through it and keys it only if it is now the least.
		// The batch touches both solo roots inside one event.
		name: "touched solo root",
		ops: []op{
			{kind: opNewPort, name: "a", value: 100},
			{kind: opNewPort, name: "b", value: 200},
			{kind: opNewPort, name: "q", value: 1000},
			{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{1, 0, 2}},
			{kind: opStartFlow, name: "g", bytes: 1e6, ports: []int{2}},
			{kind: opSetCapacity, port: 1, value: 50},
			{kind: opSetCapacity, port: 0, value: 20},
			{kind: opSetCapacity, port: 1, value: 500},
			{kind: opBatch, batch: []op{
				{kind: opSetCapacity, port: 0, value: 300},
				{kind: opSetCapacity, port: 1, value: 250},
			}},
		},
		want: 250,
	}, {
		// A downed solo port is the least, with share 0: it stalls f and
		// leaves the shared port to g. Bringing it up makes a the least;
		// downing a stalls f again.
		name: "zero-capacity solo port",
		ops: []op{
			{kind: opNewPort, name: "z", value: 0},
			{kind: opNewPort, name: "a", value: 100},
			{kind: opNewPort, name: "q", value: 1000},
			{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{1, 2, 0}},
			{kind: opStartFlow, name: "g", bytes: 1e6, ports: []int{2}},
			{kind: opSetCapacity, port: 0, value: 1000},
			{kind: opSetCapacity, port: 0, value: 0},
		},
		want: 0,
	}, {
		// f's private cap port is a solo port too, the least at 10 and
		// again at 5 once the cap is removed and set anew (a recycled
		// port with a fresh creation number); at 500 the solo port a
		// (100) is the least instead.
		name: "cap port as least solo port",
		ops: []op{
			{kind: opNewPort, name: "a", value: 100},
			{kind: opNewPort, name: "q", value: 1000},
			{kind: opStartFlow, name: "f", bytes: 1e6, ports: []int{0, 1}, value: 10},
			{kind: opStartFlow, name: "g", bytes: 1e6, ports: []int{1}},
			{kind: opSetPriorityCap, flow: 0, value: 500},
			{kind: opSetPriorityCap, flow: 0, value: 0},
			{kind: opSetPriorityCap, flow: 0, value: 5},
		},
		want: 5,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runDifferential(t, c.ops, func(r *diffRig, step int, _ op) {
				if step != len(c.ops)-1 {
					return
				}
				if got := r.nFlows[0].Rate(); got != c.want {
					t.Fatalf("flow 0 rate %v, want %v", got, c.want)
				}
			})
		})
	}
}
