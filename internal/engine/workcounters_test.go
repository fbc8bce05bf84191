package engine

import (
	"testing"

	"alm/internal/topology"
	"alm/internal/workloads"
)

// TestWorkCountersPinned gates the run's deterministic work counters
// with zero tolerance. They depend only on the seeded run, never on the
// host, so any drift is a change in what the simulator does: a moved
// event count, queue high-water mark or stop count means event order
// changed, and a moved allocator count means the fair-share layer does
// more or less work per event.
//
// The job is the bench scale_1000 geometry (50 racks × 20 nodes, 5:1
// oversubscription, terasort under SFM, seed 11) cut to 60 maps and 30
// reducers so it runs in well under a second. Allocating once per event
// instead of once per flow change took AllocPasses from 8,312 to 3,466
// and AllocRounds from 173,518 to 81,054 and left the event counts as
// they were.
func TestWorkCountersPinned(t *testing.T) {
	cs := ClusterSpec{Racks: 50, NodesPerRack: 20, HW: topology.DefaultHardware(), Oversubscription: 5}
	spec := JobSpec{
		Workload:   workloads.Terasort(),
		InputBytes: 60 * 128 << 20,
		NumReduces: 30,
		Mode:       ModeSFM,
		Seed:       11,
	}
	res, err := Run(spec, cs, WithoutTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("job failed: %s", res.FailReason)
	}
	want := EventStats{
		Processed:   5748,
		MaxQueue:    3079,
		Stopped:     7893,
		AllocPasses: 3466,
		AllocRounds: 81054,
	}
	if res.Events != want {
		t.Fatalf("work counters %+v, want %+v", res.Events, want)
	}
}
