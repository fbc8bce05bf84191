package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"alm/internal/engine"
	"alm/internal/topology"
	"alm/internal/workloads"
)

// probeNodesPerRack is the scale probe's rack size; a probed node count
// must be a multiple of it.
const probeNodesPerRack = 20

// parseNodes reads the -nodes list: comma-separated node counts, each a
// positive multiple of probeNodesPerRack.
func parseNodes(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 || n%probeNodesPerRack != 0 {
			return nil, fmt.Errorf("-nodes: %q is not a positive multiple of %d", f, probeNodesPerRack)
		}
		out = append(out, n)
	}
	return out, nil
}

// scaleProbe runs one fault-free SFM terasort job per node count — 20
// nodes per rack, 2 maps per node, 100 reducers, no trace — and prints a
// row per size: host wall and CPU time of the run, the process's peak
// RSS so far, the Go heap live at the job's end, events processed, the
// reducers' HostVisits and the job's virtual duration. It measures how
// the engine scales with cluster size, which no benchmark workload
// reaches past 1,000 nodes.
//
// CPU time and peak RSS come from getrusage on this process. The peak is
// a high-water mark over the whole process, so list sizes in ascending
// order; it also carries over from the process that started this one,
// so run a built binary rather than `go run`. It moves with GC pacing;
// the live heap does not: once the job has finished, with its state
// still reachable, the probe forces a collection and reads the bytes it
// marked live (runtime/metrics /gc/heap/live:bytes), after the times
// are taken.
func scaleProbe(nodes []int, seed int64, w io.Writer) error {
	fmt.Fprintf(w, "%7s %6s %10s %10s %12s %13s %12s %14s %12s\n",
		"nodes", "maps", "host_s", "cpu_s", "max_rss_mb", "live_heap_mb", "events", "host_visits", "virtual_s")
	for _, n := range nodes {
		spec := engine.JobSpec{
			Workload:   workloads.Terasort(),
			InputBytes: int64(2*n) * 128 << 20, // 2 maps per node
			NumReduces: 100,
			Mode:       engine.ModeSFM,
			Seed:       seed,
		}
		cs := engine.ClusterSpec{
			Racks:            n / probeNodesPerRack,
			NodesPerRack:     probeNodesPerRack,
			HW:               topology.DefaultHardware(),
			Oversubscription: 5,
		}
		cpu0 := cpuTime()
		start := time.Now() //almvet:allow detnow -- host wall time of the probe run, not simulated time
		var h engine.Handles
		res, err := engine.Run(spec, cs, engine.WithoutTrace(), engine.WithHandles(&h))
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		rss := maxRSSMB()
		if err != nil {
			return fmt.Errorf("%d nodes: %v", n, err)
		}
		if !res.Completed {
			return fmt.Errorf("%d nodes: job failed: %s", n, res.FailReason)
		}
		live := liveHeapMB()
		runtime.KeepAlive(h)
		fmt.Fprintf(w, "%7d %6d %10.2f %10.2f %12.1f %13.1f %12d %14d %12.1f\n",
			n, 2*n, wall.Seconds(), cpu.Seconds(), rss, live,
			res.Events.Processed, res.Events.HostVisits, res.Duration.Seconds())
	}
	return nil
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a garbage collection and returns the heap bytes it
// marked live, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// maxRSSMB is this process's peak resident set in MB (ru_maxrss is in
// KB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
