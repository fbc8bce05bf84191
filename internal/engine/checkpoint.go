package engine

import (
	"alm/internal/core"
	"alm/internal/dfs"
	"alm/internal/merge"
	"alm/internal/mr"
)

// Heavyweight system-level checkpoint/restart — the approach the paper's
// Section III contrasts ALG against: "system-level heavy-weight
// checkpointing mechanisms that interrupt the execution of processes and
// take snapshots of the entire memory image can incur substantial
// overhead for tasks with several GBs of heap memory."
//
// When JobSpec.Checkpoint is enabled, every ReduceTask periodically
// pauses, serializes its full state (the entire heap image, not just the
// analytics progress ALG records), and writes it synchronously to HDFS.
// Recovery restores the newest committed image on any node. The value of
// implementing it here is the comparison: checkpoint restores are as
// capable as ALG replay, but the paper's point — which the `checkpointing`
// experiment quantifies — is what they cost during normal execution.

// ckptImage is one committed task snapshot.
type ckptImage struct {
	seq   int
	stage core.Stage
	path  string

	// Shuffle/merge state.
	copied          []bool
	copiedCount     int
	shuffledLogical int64
	onDisk          []*merge.Segment
	inMem           []*merge.Segment
	inMemBytes      int64

	// Reduce state.
	finalSegs     []*merge.Segment
	positions     merge.Positions
	processed     int64
	consumedReal  int
	output        []mr.Record
	outputLogical int64
}

// ckptTick arms periodic snapshots; reduce-stage snapshots are deferred to
// the next chunk boundary, shuffle/merge snapshots run at the next quiet
// moment.
func (r *reduceExec) ckptTick() {
	if r.dead || r.stage == core.StageDone {
		return
	}
	r.ckptPending = true
	if r.stage == core.StageShuffle || r.stage == core.StageMerge {
		r.maybeCheckpoint(nil)
	}
	r.rearm(&r.ckptTimer, r.job.Spec.Checkpoint.Interval, r.ckptFn)
}

// maybeCheckpoint takes a pending snapshot, pausing execution until the
// image is durable; cont (optional) resumes the caller's work afterwards.
func (r *reduceExec) maybeCheckpoint(cont func()) {
	if !r.ckptPending || r.ckptBusy || r.dead {
		if cont != nil {
			cont()
		}
		return
	}
	r.ckptPending = false
	r.ckptBusy = true
	r.ckptSeq++
	img := r.buildImage()
	buf := append(r.nameBuf[:0], r.ckptPrefix...)
	buf = appendPad5(buf, r.ckptSeq)
	name := string(buf)
	r.nameBuf = buf
	img.path = name
	taskIdx := r.t.idx
	// The snapshot is the task's entire memory image, written
	// synchronously (the task is frozen while it drains).
	_, err := r.job.Cluster.DFS.Write(name, r.a.node, r.job.Spec.Checkpoint.ImageBytes,
		dfs.WriteOptions{Replication: r.conf.DFSReplication, Scope: mr.ReplicateCluster},
		func(werr error) {
			r.ckptBusy = false
			if r.dead {
				return
			}
			if werr != nil {
				// The image never became durable: keep the previous
				// checkpoint, re-arm the pending flag so the next tick
				// retries, and let the task resume. Dropping this error is
				// exactly the failure-amplification path the paper warns
				// about — a restore would replay from a stale image.
				r.job.result.Counters.Add("ckpt.write_errors", 1)
				r.ckptPending = true
				if cont != nil {
					cont()
				}
				r.fillFetchers()
				return
			}
			if old := r.job.checkpoints[taskIdx]; old == nil || img.seq > old.seq {
				r.job.checkpoints[taskIdx] = img
			}
			r.job.result.Counters.Add("ckpt.snapshots", 1)
			r.job.result.Counters.Add("ckpt.bytes", r.job.Spec.Checkpoint.ImageBytes*int64(r.conf.DFSReplication))
			if cont != nil {
				cont()
			}
			r.fillFetchers() // resume paused shuffle sessions
		})
	if err != nil {
		// Writer unreachable: the task is doomed anyway; just resume.
		r.ckptBusy = false
		if cont != nil {
			cont()
		}
	}
}

// buildImage snapshots the executor's state. Slices are copied; segment
// objects are shared (they are immutable once built).
func (r *reduceExec) buildImage() *ckptImage {
	img := &ckptImage{
		seq:             r.ckptSeq,
		stage:           r.stage,
		copied:          append([]bool{}, r.copied...),
		copiedCount:     r.copiedCount,
		shuffledLogical: r.shuffledLogical,
		onDisk:          append([]*merge.Segment{}, r.onDisk...),
		inMem:           append([]*merge.Segment{}, r.inMem...),
		inMemBytes:      r.inMemBytes,
	}
	if r.stage == core.StageReduce && r.cursor != nil {
		img.finalSegs = append([]*merge.Segment{}, r.finalSegs...)
		img.positions = r.cursor.BoundaryPositions()
		img.processed = r.processed
		img.consumedReal = r.consumedReal()
		img.output = append([]mr.Record{}, r.output...)
		img.outputLogical = r.outputLogical
	}
	return img
}

// tryCheckpointRestore loads the newest committed image when this attempt
// starts; it charges the image read and reports whether state was
// restored.
func (r *reduceExec) tryCheckpointRestore() bool {
	img := r.job.checkpoints[r.t.idx]
	if img == nil {
		return false
	}
	r.ckptSeq = img.seq
	r.copied = append([]bool{}, img.copied...)
	r.copiedCount = img.copiedCount
	// The image wholesale-replaced r.copied; the incremental host index is
	// now stale and must be recomputed before any fetch decision.
	r.rebuildHostIndex()
	r.shuffledLogical = img.shuffledLogical
	r.onDisk = append([]*merge.Segment{}, img.onDisk...)
	r.inMem = append([]*merge.Segment{}, img.inMem...)
	r.inMemBytes = img.inMemBytes
	if img.stage == core.StageReduce {
		r.finalSegs = append([]*merge.Segment{}, img.finalSegs...)
		r.totalLogical = merge.TotalLogicalBytes(r.finalSegs)
		r.totalReal = merge.TotalRealRecords(r.finalSegs)
		r.cursor = merge.NewGroupCursor(r.cmp(), r.grouper(), r.finalSegs, img.positions)
		r.processed = img.processed
		r.realBase = img.consumedReal
		r.output = append([]mr.Record{}, img.output...)
		r.outputLogical = img.outputLogical
		r.ckptRestoredOutput = img.outputLogical
		r.stage = core.StageReduce
	}
	// Charge the image read (from an HDFS replica to this node).
	r.ckptRestoring = true
	if err := r.job.Cluster.DFS.Read(img.path, r.a.node, func(rerr error) {
		r.ckptRestoring = false
		if r.dead {
			return
		}
		if rerr != nil {
			// The image read failed mid-restore. In-memory state was
			// already applied, so resuming is still the least-bad option,
			// but the failure must be visible in the run's counters.
			r.job.result.Counters.Add("ckpt.restore_errors", 1)
		}
		r.resumeAfterRestore()
	}); err != nil {
		r.ckptRestoring = false
		return false
	}
	r.job.Tracer.Emit(r.job.Eng.Now(), "ckpt-restored", r.a.id, r.a.nodeName(r.job), img.stage.String())
	r.job.result.Counters.Add("ckpt.restores", 1)
	return true
}

// resumeAfterRestore continues execution once the image is local.
func (r *reduceExec) resumeAfterRestore() {
	if r.stage == core.StageReduce && r.cursor != nil {
		r.startReduceStageRestored()
		return
	}
	r.fillFetchers()
}
