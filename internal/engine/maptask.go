package engine

import (
	"alm/internal/dfs"
	"alm/internal/fairshare"
	"alm/internal/merge"
	"alm/internal/mr"
	"alm/internal/sim"
	"alm/internal/topology"
)

// mapExec runs one MapTask attempt: read the split from DFS, apply the
// map function (CPU), and write the Map Output File to the local disk.
type mapExec struct {
	job  *Job
	t    *taskState
	a    *attempt
	dead bool

	flows  []*fairshare.Flow
	timers []*sim.Timer

	issReplicas []topology.NodeID
}

func newMapExec(j *Job, t *taskState, a *attempt) *mapExec {
	return &mapExec{job: j, t: t, a: a}
}

func (m *mapExec) kill(string) {
	m.dead = true
	for _, f := range m.flows {
		f.Cancel()
	}
	for _, tm := range m.timers {
		tm.Stop()
	}
	assertQuiet(m.a.id, m.timers, m.flows)
}

func (m *mapExec) start() {
	// Container localization + JVM startup.
	m.timers = append(m.timers, m.job.Eng.Schedule(m.job.Spec.Conf.TaskLaunchOverhead, m.begin))
}

func (m *mapExec) begin() {
	if m.dead {
		return
	}
	// Stage 1: read the input split (locality was preferred at launch, so
	// this is usually a local disk read).
	flow, err := m.job.Cluster.DFS.ReadBlock(m.t.block, m.a.node, func(rerr error) {
		if rerr != nil {
			// The read started but a replica vanished mid-flight.
			if !m.dead {
				m.job.am.attemptFailed(m.a, "input split read failed: "+rerr.Error())
			}
			return
		}
		m.afterRead()
	})
	if err != nil {
		// No live replica: the input is gone. The attempt fails; the AM
		// retries and the job dies if the data never comes back.
		m.job.am.attemptFailed(m.a, "input split unreadable: "+err.Error())
		return
	}
	m.flows = append(m.flows, flow)
}

func (m *mapExec) afterRead() {
	if m.dead {
		return
	}
	m.job.am.reportProgress(m.a, 0.4)
	// Stage 2: map-function CPU (plus sort/partition of the output).
	cpu := secondsDur(float64(m.t.block.Bytes) / m.job.Spec.Conf.Costs.MapCPURate)
	m.timers = append(m.timers, m.job.Eng.Schedule(cpu, m.afterCPU))
}

func (m *mapExec) afterCPU() {
	if m.dead {
		return
	}
	m.job.am.reportProgress(m.a, 0.7)
	outBytes := int64(float64(m.t.block.Bytes) * m.job.Spec.Workload.MapOutputRatio)
	if outBytes < 1 {
		outBytes = 1
	}
	// Stage 3: write the MOF (all partitions) to the local disk.
	f := m.job.Cluster.Disks.Write(m.a.node, outBytes, func() { m.afterWrite(outBytes) })
	m.flows = append(m.flows, f)
}

func (m *mapExec) afterWrite(outBytes int64) {
	if m.dead {
		return
	}
	if !m.job.Cluster.NodeReachable(m.a.node) {
		// Finished, but the success report cannot reach the AM; the task
		// is stranded and will be declared failed by the progress timeout.
		return
	}
	parts := m.buildPartitions(outBytes)
	m.job.result.Counters.Add("map.output.bytes", outBytes)
	if m.job.tier != nil {
		// Remote shuffle: push every partition segment to the tier. The
		// map commits only once each partition is stored on at least one
		// tier replica — until then a map-node loss costs only this
		// attempt, never a delivered MOF.
		partBytes := make([]int64, len(parts))
		for r, s := range parts {
			partBytes[r] = s.LogicalBytes
		}
		m.job.tier.Push(m.t.idx, m.a.node, partBytes, func() {
			if m.dead || !m.job.Cluster.NodeReachable(m.a.node) {
				// Commit report lost: the progress timeout reclaims the
				// attempt, exactly like the stranded-write path below.
				return
			}
			m.job.am.mapFinished(m.t, m.a, parts)
		})
		return
	}
	if m.job.Spec.ISS.Enabled {
		// ISS: replicate the MOF to HDFS before committing the map —
		// the availability/overhead trade the paper's related work makes.
		name := "iss/" + m.job.Spec.Name + "/" + m.a.id
		replicas, err := m.job.Cluster.DFS.Write(name, m.a.node, outBytes,
			dfs.WriteOptions{Replication: 1 + m.job.Spec.ISS.Replicas, Scope: mr.ReplicateCluster},
			func(werr error) {
				if m.dead {
					return
				}
				if werr != nil {
					// Replication failed in flight: commit without ISS
					// copies, mirroring the synchronous-error path below.
					m.job.result.Counters.Add("iss.replicate_errors", 1)
					m.issReplicas = nil
				}
				m.commitISS(parts, outBytes)
			})
		if err != nil {
			m.commitISS(parts, outBytes) // replication impossible; commit plain
			return
		}
		m.issReplicas = replicas[1:]
		m.job.result.Counters.Add("iss.replicated.bytes", outBytes*int64(m.job.Spec.ISS.Replicas))
		return
	}
	m.job.am.mapFinished(m.t, m.a, parts)
}

func (m *mapExec) commitISS(parts []*merge.Segment, outBytes int64) {
	if m.dead || !m.job.Cluster.NodeReachable(m.a.node) {
		return
	}
	m.job.am.mapFinishedISS(m.t, m.a, parts, m.issReplicas)
}

// buildPartitions materialises the MOF: one segment per partition over
// the split's sorted sample records. The workload builds those records
// once per geometry and shares them with every attempt of every job that
// asks again, so a re-executed map gets an identical MOF — the property
// ALG's log replay relies on. The segments are capped views: nothing
// writes or appends to Segment.Records.
func (m *mapExec) buildPartitions(outBytes int64) []*merge.Segment {
	spec := m.job.Spec
	parts := spec.Workload.MapOutput(spec.Seed, m.t.idx, spec.SamplePerSplit, spec.NumReduces)
	perPartBytes := outBytes / int64(spec.NumReduces)
	if perPartBytes < 1 {
		perPartBytes = 1
	}
	perPartRecords := perPartBytes / 32
	if perPartRecords < 1 {
		perPartRecords = 1
	}
	segs := make([]*merge.Segment, len(parts))
	partID := m.a.id + "/part" // a.id == attemptID(typ, idx, attemptNo), set at launch
	for r, recs := range parts {
		segs[r] = &merge.Segment{
			ID:             partID,
			InMemory:       true,
			LogicalBytes:   perPartBytes,
			LogicalRecords: perPartRecords,
			Records:        recs[:len(recs):len(recs)],
		}
	}
	return segs
}

// secondsDur converts seconds to a sim duration.
func secondsDur(s float64) sim.Time {
	if s < 0 {
		s = 0
	}
	return sim.Time(s * 1e9)
}
