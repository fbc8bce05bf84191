// Package core implements the paper's contribution, the ALM framework:
//
//   - ALG (Analytics LogGing): the per-stage log-record formats of Fig. 6
//     and snapshot/replay helpers;
//   - SFM (Speculative Fast Migration): the enhanced failure-recovery
//     scheduling policy of Algorithm 1, expressed as a pure decision
//     function over a scheduler view;
//   - FCM (Fast Collective Merging): planning of the Local-MPQ /
//     Global-MPQ recovery pipeline.
//
// The package holds policy and data formats only; the runtime mechanism
// (containers, flows, timers) lives in internal/engine, which consumes
// these types.
package core

import (
	"fmt"

	"alm/internal/merge"
)

// Stage identifies which ReduceTask stage a log record was taken in.
type Stage int

// ReduceTask stages, in execution order.
const (
	StageShuffle Stage = iota
	StageMerge
	StageReduce
	StageDone
)

func (s Stage) String() string {
	switch s {
	case StageShuffle:
		return "shuffle"
	case StageMerge:
		return "merge"
	case StageReduce:
		return "reduce"
	case StageDone:
		return "done"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// LogRecord is one ALG analytics-progress snapshot. Field presence
// follows Fig. 6: shuffle-stage records carry fetched MOFs and
// intermediate file paths; merge-stage records carry paths only; reduce-
// stage records carry the MPQ structure (paths + per-file offsets of the
// next unprocessed pair) plus the safely-flushed output watermark.
// A record is immutable once Snapshot builds it: the local store and the
// HDFS commit table hold the same pointer.
type LogRecord struct {
	TaskIdx   int
	AttemptID string
	Seq       int
	Stage     Stage

	// FetchedMOFs counts the maps the shuffle-stage files hold (Fig. 6,
	// left column); a restore reads their IDs from the files' metadata.
	FetchedMOFs int

	// Intermediate file paths (all stages).
	SegmentPaths []string

	// Reduce-stage MPQ structure (Fig. 6, right column). Positions[i] is
	// the offset of the next <k',v'> pair in SegmentPaths[i].
	Positions             merge.Positions
	ProcessedLogicalBytes int64
	ProcessedRealRecords  int
	ProcessedGroups       int

	// Output safely flushed to HDFS as of this snapshot.
	FlushedOutputLogical int64
	FlushedOutputRecords int
}

// Validate checks internal consistency of a record.
func (r *LogRecord) Validate() error {
	switch r.Stage {
	case StageShuffle, StageMerge, StageReduce:
	default:
		return fmt.Errorf("core: log record with invalid stage %d", r.Stage)
	}
	if r.Stage == StageReduce && len(r.Positions) != len(r.SegmentPaths) {
		return fmt.Errorf("core: reduce log record has %d positions for %d segments",
			len(r.Positions), len(r.SegmentPaths))
	}
	return nil
}

// Newer reports whether r supersedes other (nil other is always
// superseded). Later stages beat earlier ones; within a stage, higher
// sequence numbers win.
func (r *LogRecord) Newer(other *LogRecord) bool {
	if other == nil {
		return true
	}
	if r.Stage != other.Stage {
		return r.Stage > other.Stage
	}
	return r.Seq > other.Seq
}

// LogPathHDFS returns the conventional HDFS path for a reduce-stage ALG
// log record.
func LogPathHDFS(jobID string, taskIdx, seq int) string {
	return fmt.Sprintf("hdfs://%s/alg/r%03d/log-%05d", jobID, taskIdx, seq)
}

// EstimateSizeBytes returns the simulated size of a record as stored; log records are small (the paper's "light-weight" property) —
// a few bytes per referenced file plus a fixed header.
func (r *LogRecord) EstimateSizeBytes() int64 {
	return int64(256 + 16*r.FetchedMOFs + 64*len(r.SegmentPaths) + 8*len(r.Positions))
}
