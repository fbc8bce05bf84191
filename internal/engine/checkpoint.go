package engine

import (
	"alm/internal/core"
	"alm/internal/dfs"
	"alm/internal/merge"
	"alm/internal/mr"
	"alm/internal/trace"
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

// ckptImage is one committed task snapshot: the whole state of the
// attempt as a restore point, stored in the DFS file path.
type ckptImage struct {
	seq  int
	path string
	restorePoint
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
	// The snapshot is the task's entire memory image (the whole reduce
	// heap), written synchronously (the task is frozen while it drains).
	imageBytes := int64(r.conf.ReduceMemoryMB) << 20
	_, err := r.job.Cluster.DFS.Write(name, r.a.node, imageBytes,
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
			r.job.result.Counters.Add("ckpt.bytes", imageBytes*int64(r.conf.DFSReplication))
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
// objects and their map lists are shared (they are immutable once built).
func (r *reduceExec) buildImage() *ckptImage {
	local := r.job.local(r.a.node)
	img := &ckptImage{seq: r.ckptSeq, restorePoint: restorePoint{
		stage:      r.stage,
		onDisk:     append([]*merge.Segment{}, r.onDisk...),
		onDiskMaps: make([][]int, len(r.onDisk)),
		inMem:      append([]*merge.Segment{}, r.inMem...),
		inMemMaps:  append([]int{}, r.inMemMaps...),
		inMemBytes: r.inMemBytes,
	}}
	for i, sg := range r.onDisk {
		img.onDiskMaps[i] = local.segMaps[sg.Path]
	}
	if r.stage == core.StageReduce && r.cursor != nil {
		// The cursor runs over onDisk then inMem (openCursor).
		img.positions = r.cursor.BoundaryPositions()
		img.processed = r.processed
		img.consumedReal = r.consumedReal()
		img.output = append([]mr.Record{}, r.output...)
		img.outputLogical = r.outputLogical
	}
	return img
}

// readableImage returns the newest committed image of this task when
// checkpointing is on and the image's file exists, else nil.
func (r *reduceExec) readableImage() *ckptImage {
	img := r.job.checkpoints[r.t.idx]
	if !r.job.Spec.Checkpoint.Enabled || img == nil || !r.job.Cluster.DFS.Exists(img.path) {
		return nil
	}
	return img
}

// readImage charges the read of the applied image, from an HDFS replica
// to this node; the attempt resumes when it lands.
func (r *reduceExec) readImage(img *ckptImage) {
	r.ckptRestoring = true
	if err := r.job.Cluster.DFS.Read(img.path, r.a.node, r.imageRead); err != nil {
		r.imageRead(err)
	}
	r.job.Tracer.Emit(r.job.Eng.Now(), trace.KindCkptRestored, r.a.id, r.a.nodeName(r.job), img.stage.String())
	r.job.result.Counters.Add("ckpt.restores", 1)
}

// imageRead resumes the attempt after its image read. A read that failed
// midway still resumes from the applied state, the least-bad option, but
// the failure must be visible in the run's counters.
func (r *reduceExec) imageRead(err error) {
	r.ckptRestoring = false
	if r.dead {
		return
	}
	if err != nil {
		r.job.result.Counters.Add("ckpt.restore_errors", 1)
	}
	r.resume()
}
