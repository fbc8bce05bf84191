package engine

import (
	"testing"
	"time"

	"alm/internal/faults"
	"alm/internal/topology"
	"alm/internal/workloads"
)

// TestWorkCountersPinned gates the run's deterministic work counters
// with zero tolerance. They depend only on the seeded run, never on the
// host, so any drift is a change in what the simulator does: a moved
// event count, queue high-water mark or stop count means event order
// changed, a moved allocator count means the fair-share layer does more
// or less work per instant, and a moved index count means the reducers'
// fetch index re-resolves or scans more or less per notification.
func TestWorkCountersPinned(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		cs   ClusterSpec
		opts []RunOption
		want EventStats
	}{{
		// The bench scale_1000 geometry (50 racks × 20 nodes, 5:1
		// oversubscription, terasort under SFM, seed 11) cut to 60 maps
		// and 30 reducers so it runs in well under a second. Allocating
		// once per event instead of once per flow change took AllocPasses
		// from 8,312 to 3,466 and AllocRounds from 173,518 to 81,054 and
		// left the event counts as they were. Walking only non-empty host
		// buckets took HostVisits from 1,942,800 to 54,900. Allocating
		// only the components that hold a changed port took AllocRounds
		// from 81,054 to 25,091 and the flows allocated from 111,786 to
		// AllocFlows 55,806, with the same passes. Keying each flow's
		// least solo port instead of all of them took AllocPorts from
		// 239,361 to 78,437 and moved no other count. Allocating once
		// per instant instead of once per event took AllocPasses from
		// 3,466 to 419, AllocRounds from 25,091 to 5,156, AllocFlows
		// from 55,806 to 10,131 and AllocPorts from 78,437 to 12,607,
		// and left the event counts as they were. Picking by rank in
		// the candidate set instead of walking the live hosts took
		// HostVisits, now host re-evaluations by the index, from 54,900
		// to 1,800 and moved no other count.
		name: "scale_1000",
		spec: JobSpec{
			Workload:   workloads.Terasort(),
			InputBytes: 60 * 128 << 20,
			NumReduces: 30,
			Mode:       ModeSFM,
			Seed:       11,
		},
		cs: ClusterSpec{Racks: 50, NodesPerRack: 20, HW: topology.DefaultHardware(), Oversubscription: 5},
		want: EventStats{
			Processed:    5748,
			MaxQueue:     3079,
			Stopped:      7893,
			AllocPasses:  419,
			AllocRounds:  5156,
			AllocFlows:   10131,
			AllocPorts:   12607,
			IndexUpdates: 3600,
			HostVisits:   1800,
		},
	}, {
		// The same maps and reducers on 4× the nodes (200 racks × 20):
		// a host is re-evaluated only when its own list, session or
		// advisory changes, so HostVisits does not grow with the node
		// count.
		name: "scale_1000_nodes_x4",
		spec: JobSpec{
			Workload:   workloads.Terasort(),
			InputBytes: 60 * 128 << 20,
			NumReduces: 30,
			Mode:       ModeSFM,
			Seed:       11,
		},
		cs: ClusterSpec{Racks: 200, NodesPerRack: 20, HW: topology.DefaultHardware(), Oversubscription: 5},
		want: EventStats{
			Processed:    5748,
			MaxQueue:     3080,
			Stopped:      7893,
			AllocPasses:  419,
			AllocRounds:  5055,
			AllocFlows:   10232,
			AllocPorts:   11193,
			IndexUpdates: 3600,
			HostVisits:   1800,
		},
	}, {
		// Remote shuffle with a tier-service crash mid-shuffle and its
		// restore: the re-replications land on committed maps, so the
		// scoped tier notifications carry most of the index work.
		// Re-resolving only the map and partitions a notification names
		// took IndexUpdates from 10,336 to 560, and the live-host walk
		// took HostVisits from 4,594 to 8. Per-component allocation took
		// AllocRounds from 9,054 to 2,145 and the flows allocated from
		// 10,299 to AllocFlows 2,896. The solo fold took AllocPorts
		// from 7,219 to 4,060. Allocating once per instant took
		// AllocPasses from 1,270 to 633, AllocRounds from 2,145 to
		// 1,602, AllocFlows from 2,896 to 2,143 and AllocPorts from
		// 4,060 to 2,983. Picking by rank in the candidate set left
		// HostVisits at 8, though it now counts candidate
		// re-evaluations, not hosts a pick walks.
		name: "tier_crash",
		spec: remoteSpec(workloads.Terasort(), ModeALM, 8),
		cs:   smallCluster(),
		opts: []RunOption{WithPlan(faults.CrashTierNodeAtTime(30*time.Second, 0, 4*time.Second))},
		want: EventStats{
			Processed:    2085,
			MaxQueue:     841,
			Stopped:      1790,
			AllocPasses:  633,
			AllocRounds:  1602,
			AllocFlows:   2143,
			AllocPorts:   2983,
			IndexUpdates: 560,
			HostVisits:   8,
		},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.spec, c.cs, append(c.opts, WithoutTrace())...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("job failed: %s", res.FailReason)
			}
			if res.Events != c.want {
				t.Fatalf("work counters %+v, want %+v", res.Events, c.want)
			}
		})
	}
}
