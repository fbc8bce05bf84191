package core

import (
	"time"

	"alm/internal/mr"
)

// ALGOptions are the tunables of Analytics LogGing.
type ALGOptions struct {
	// Interval between periodic snapshots (paper Fig. 12 sweeps this).
	Interval time.Duration
	// Replication is the placement scope of reduce-stage HDFS artifacts
	// (paper Fig. 13; rack is the paper's choice).
	Replication mr.ReplicationLevel
}

// ALGReplicas is the HDFS replica count of ALG logs and flushed output.
const ALGReplicas = 2

// DefaultALGOptions returns the paper's settings.
func DefaultALGOptions() ALGOptions {
	return ALGOptions{
		Interval:    10 * time.Second,
		Replication: mr.ReplicateRack,
	}
}

// ReduceView is what ALG observes of a running ReduceTask when taking a
// snapshot. The engine's reduce attempt implements it.
type ReduceView interface {
	Stage() Stage
	// FetchedMOFs counts the map partitions the on-disk files hold.
	FetchedMOFs() int
	// SegmentPaths lists on-disk intermediate files. During the reduce
	// stage its order must match ReducePositions.
	SegmentPaths() []string
	ReducePositions() []int
	ProcessedLogicalBytes() int64
	ProcessedRealRecords() int
	ProcessedGroups() int
	FlushedOutputLogical() int64
	FlushedOutputRecords() int
}

// Snapshot builds the stage-appropriate log record from a live view
// (Fig. 6): shuffle records carry MOF counts + paths, merge records paths
// only, reduce records the MPQ structure and output watermark.
func Snapshot(v ReduceView, taskIdx int, attemptID string, seq int) *LogRecord {
	rec := &LogRecord{
		TaskIdx:   taskIdx,
		AttemptID: attemptID,
		Seq:       seq,
		Stage:     v.Stage(),
	}
	switch v.Stage() {
	case StageShuffle:
		rec.FetchedMOFs = v.FetchedMOFs()
		rec.SegmentPaths = append([]string(nil), v.SegmentPaths()...)
	case StageMerge:
		rec.SegmentPaths = append([]string(nil), v.SegmentPaths()...)
	case StageReduce:
		rec.SegmentPaths = append([]string(nil), v.SegmentPaths()...)
		rec.Positions = append([]int(nil), v.ReducePositions()...)
		rec.ProcessedLogicalBytes = v.ProcessedLogicalBytes()
		rec.ProcessedRealRecords = v.ProcessedRealRecords()
		rec.ProcessedGroups = v.ProcessedGroups()
		rec.FlushedOutputLogical = v.FlushedOutputLogical()
		rec.FlushedOutputRecords = v.FlushedOutputRecords()
	}
	return rec
}
