package engine

import (
	"strconv"

	"alm/internal/core"
	"alm/internal/dfs"
	"alm/internal/fairshare"
	"alm/internal/merge"
	"alm/internal/mr"
	"alm/internal/topology"
	"alm/internal/trace"
)

// fcmExec runs a recovery ReduceTask in Fast Collective Merging mode
// (paper Section IV-A): every node holding MOF partitions for this
// reducer pre-merges them into a Local-MPQ and streams the merged run;
// the recovering reducer overlaps shuffle, global merge and reduce in one
// all-in-memory pipeline. Its throughput is bounded by the reducer's NIC,
// the suppliers' aggregate disk/NIC bandwidth and the reduce CPU rate —
// never by local disk merging.
type fcmExec struct {
	attemptRun

	started       bool
	reportTimerOn bool
	sources       []*core.FCMSource
	totalSupply   int64
	pendingSrcs   int
	cpuPort       *fairshare.Port

	// restored is the HDFS commit this attempt inherits (zero if none):
	// the pipeline supplies and reduces only what follows its prefix.
	restored algCommit

	output        []mr.Record
	outputLogical int64
	outWriter     *dfs.StreamWriter
}

func newFCMExec(j *Job, t *taskState, a *attempt) *fcmExec {
	return &fcmExec{attemptRun: attemptRun{job: j, t: t, a: a}}
}

// kill leaves the participants' Local-MPQs alone: they are dismantled
// after a timeout when the recovering reducer stops requesting data, and
// their cost was already charged through the supply flows.
func (f *fcmExec) kill() {
	f.job.am.unregisterExec(f)
	f.stop()
	if f.outWriter != nil {
		f.outWriter.Abort()
	}
}

// onMapAvailable: fcmExec registers in am.reduceExecs (a slice in
// registration order) like a reduce attempt, so it also hears MOF
// availability while waiting for regeneration.
func (f *fcmExec) onMapAvailable(int) {
	if !f.dead && !f.started {
		f.maybeBegin()
	}
}

// onReachabilityChanged is required by mapAvailListener; FCM keeps no
// host-indexed state, so there is nothing to update.
func (f *fcmExec) onReachabilityChanged(topology.NodeID, bool) {}

// onWaitChanged is required by mapAvailListener; FCM does not pick
// fetch hosts, so the wait advisory is not its concern.
func (f *fcmExec) onWaitChanged(int) {}

// onTierChanged re-checks pipeline start: a tier repair completing may
// have just made the last missing segment servable. FCM waits on every
// map, so it ignores the change's scope.
func (f *fcmExec) onTierChanged(int, []int) {
	if !f.dead && !f.started {
		f.maybeBegin()
	}
}

func (f *fcmExec) start() {
	f.after(f.job.Spec.Conf.TaskLaunchOverhead, f.begin)
}

func (f *fcmExec) begin() {
	if f.dead {
		return
	}
	f.job.am.registerExec(f)
	f.startHeartbeat(f)
	if f.job.Spec.Mode.ALGEnabled() {
		if c := f.job.algCommits[f.t.idx]; c.rec != nil {
			f.restored = c
			f.job.Tracer.Emit(f.job.Eng.Now(), trace.KindLogRestored, f.a.id, f.a.nodeName(f.job), "hdfs:reduce(fcm)")
			f.job.result.Counters.Add("alg.restores.fcm", 1)
		}
	}
	f.maybeBegin()
}

func (f *fcmExec) progress() float64 {
	if !f.started || f.totalSupply == 0 {
		return 0
	}
	var remaining float64
	for _, fl := range f.flows {
		if !fl.Ended() {
			remaining += fl.Remaining()
		}
	}
	p := 1 - remaining/float64(f.totalSupply)
	if p < 0 {
		p = 0
	}
	if p > 0.99 {
		p = 0.99
	}
	return p
}

// maybeBegin starts the pipeline once every map's MOF is available on a
// reachable node. Until then the attempt waits — SFM has normally already
// prioritised regeneration of anything missing; if it has not (ablated
// proactive regeneration), the recovering reducer reports the lost MOFs
// like any stock reducer would, so the fetch-failure path regenerates
// them.
func (f *fcmExec) maybeBegin() {
	if f.dead || f.started {
		return
	}
	am := f.job.am
	for m := range am.maps {
		if !am.mofAvailable(m) {
			f.armMissingMOFReports()
			return
		}
	}
	f.started = true
	inputs := make([]core.PartitionInput, 0, len(am.maps))
	for m, mof := range am.mofs {
		node := mof.node
		if tier := f.job.tier; tier != nil {
			// Remote shuffle: supply comes from the tier replica serving
			// this partition (mofAvailable above guaranteed one exists).
			if h, ok := tier.ServeNode(m, f.t.idx); ok {
				node = h
			}
		}
		inputs = append(inputs, core.PartitionInput{MapID: m, Node: node, Segment: mof.parts[f.t.idx]})
	}
	f.sources = core.PlanFCM(f.job.Spec.Workload.Cmp(), inputs)
	total := core.TotalLogicalBytes(f.sources)
	skipFrac := 0.0
	if _, logical := f.restored.skip(); logical > 0 && total > 0 {
		skipFrac = min(float64(logical)/float64(total), 1)
	}
	f.cpuPort = f.job.Cluster.Net.System().NewPort(f.a.id+"/cpu", f.job.Spec.Conf.Costs.ReduceCPURate)
	// Open the output stream now: in the pipeline the reduce output is
	// written concurrently with the incoming supply, so the HDFS write
	// overlaps rather than following the merge.
	w, err := f.job.Cluster.DFS.OpenWrite("out/"+f.job.Spec.Name+"/"+f.a.id, f.a.node, f.job.reduceWriteOptions())
	if err != nil {
		if !f.job.Cluster.NodeReachable(f.a.node) {
			f.kill() // stranded: node unreachable
			return
		}
		f.job.am.attemptFailed(f.a, "cannot open output stream: "+err.Error())
		return
	}
	f.outWriter = w
	for _, src := range f.sources {
		supply := int64(float64(src.LogicalBytes) * (1 - skipFrac))
		if supply < 1 {
			supply = 1
		}
		f.totalSupply += supply
		ports := []*fairshare.Port{f.job.Cluster.Disks.ReadPort(src.Node)}
		ports = append(ports, f.job.Cluster.Net.PortsFor(src.Node, f.a.node)...)
		ports = append(ports, f.cpuPort)
		f.pendingSrcs++
		flow := f.job.Cluster.Net.System().StartFlow(
			f.a.id+"/fcm<-"+strconv.Itoa(int(src.Node)), supply, ports, 0,
			f.sourceDone)
		f.addFlow(flow)
	}
	f.outputLogical = int64(float64(f.totalSupply) * f.job.Spec.Workload.ReduceOutputRatio)
	f.outWriter.Append(f.outputLogical, nil)
	f.job.result.Counters.Add("fcm.supply.bytes", f.totalSupply)
	if f.pendingSrcs == 0 {
		f.pipelineDone()
	}
}

// armMissingMOFReports periodically reports unreachable MOFs to the AM
// while the pipeline cannot start, mirroring a stock reducer's fetch-
// failure notifications.
func (f *fcmExec) armMissingMOFReports() {
	if f.reportTimerOn {
		return
	}
	f.reportTimerOn = true
	delay := f.job.Spec.Conf.FetchConnectTimeout + f.job.Spec.Conf.FetchRetryBackoff
	f.after(delay, func() {
		f.reportTimerOn = false
		if f.dead || f.started {
			return
		}
		am := f.job.am
		// Dense NodeID-indexed buckets; the ascending node scan below
		// replaces the old sorted-map-keys traversal, same report order.
		byHost := make([][]int, f.job.Cluster.Topo.NumNodes())
		for m := range am.maps {
			if mof := am.mofs[m]; mof != nil && !am.mofAvailable(m) {
				byHost[mof.node] = append(byHost[mof.node], m)
			}
		}
		if f.job.Cluster.NodeReachable(f.a.node) {
			for h, maps := range byHost {
				if len(maps) > 0 {
					am.onFetchFailureReport(f.t.idx, topology.NodeID(h), maps)
				}
			}
		}
		f.maybeBegin()
	})
}

func (f *fcmExec) sourceDone() {
	if f.dead {
		return
	}
	f.pendingSrcs--
	f.job.am.reportProgress(f.a, f.progress())
	if f.pendingSrcs == 0 {
		f.pipelineDone()
	}
}

// pipelineDone runs the data plane (the pipeline's semantics, all time
// already charged by the supply flows): global-merge the Local-MPQ runs,
// skip any restored prefix, reduce the remaining groups, and commit the
// output.
func (f *fcmExec) pipelineDone() {
	segs := core.GlobalMPQSegments(f.sources)
	cursor := merge.NewGroupCursor(f.job.Spec.Workload.Cmp(), f.job.Spec.Workload.Group(), segs, nil)
	skipReal, _ := f.restored.skip()
	for cursor.DeliveredRecords() < skipReal {
		if _, _, ok := cursor.NextGroup(); !ok {
			break
		}
	}
	emit := func(ok, ov string) {
		f.output = append(f.output, mr.Record{Key: ok, Value: ov})
	}
	for {
		k, vs, ok := cursor.NextGroup()
		if !ok {
			break
		}
		f.job.Spec.Workload.Reduce(k, vs, emit)
	}
	f.outWriter.Commit(func(cerr error) {
		if f.dead || !f.job.Cluster.NodeReachable(f.a.node) {
			return
		}
		if cerr != nil {
			// The output never became durable; reporting success here
			// would lose committed reduce output. Fail the attempt.
			f.job.result.Counters.Add("reduce.commit_errors", 1)
			f.job.am.attemptFailed(f.a, "output commit failed: "+cerr.Error())
			return
		}
		f.job.result.Counters.Add("reduce.output.bytes", f.outputLogical)
		f.job.am.reduceFinished(f.t, f.a, reduceOutcome{output: f.output, outputLogical: f.outputLogical, restored: f.restored})
	})
}
