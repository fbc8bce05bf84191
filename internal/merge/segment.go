// Package merge implements the intermediate-data machinery of the
// ReduceTask: sorted segments, the Minimum Priority Queue (MPQ) k-way
// merge, and a resumable merge cursor whose position can be captured in
// an analytics log and later restored (the heart of ALG's reduce-stage
// logging, paper Section III-B).
package merge

import (
	"fmt"
	"sort"

	"alm/internal/mr"
)

// Segment is one sorted run of intermediate data. LogicalBytes and
// LogicalRecords are the paper-scale sizes used for time accounting;
// Records is the bounded real sample that the pipeline actually sorts,
// merges and reduces.
type Segment struct {
	ID             string
	Path           string // virtual file path when spilled; "" while in memory
	InMemory       bool
	LogicalBytes   int64
	LogicalRecords int64
	Records        []mr.Record
}

// recordsByKey adapts a record slice to sort.Interface. The typed
// implementation matters: sort.SliceStable reflects over the slice to
// build a swapper, and a workload sorts every partition of every split
// it builds.
type recordsByKey struct {
	recs []mr.Record
	cmp  mr.KeyComparator
}

func (s recordsByKey) Len() int           { return len(s.recs) }
func (s recordsByKey) Less(i, j int) bool { return s.cmp(s.recs[i].Key, s.recs[j].Key) < 0 }
func (s recordsByKey) Swap(i, j int)      { s.recs[i], s.recs[j] = s.recs[j], s.recs[i] }

// SortRecordsStable stably sorts records in place by key under cmp.
func SortRecordsStable(cmp mr.KeyComparator, recs []mr.Record) {
	sort.Stable(recordsByKey{recs: recs, cmp: cmp})
}

// NewSegment builds a segment over a copy of records sorted by cmp.
// Every segment in the system is sorted; a map's segments are views of
// records its workload already sorted (Workload.MapOutput).
func NewSegment(id string, cmp mr.KeyComparator, records []mr.Record, logicalBytes, logicalRecords int64) *Segment {
	rs := make([]mr.Record, len(records))
	copy(rs, records)
	SortRecordsStable(cmp, rs)
	return &Segment{
		ID:             id,
		InMemory:       true,
		LogicalBytes:   logicalBytes,
		LogicalRecords: logicalRecords,
		Records:        rs,
	}
}

// Spill marks the segment as resident on disk under the given path.
func (s *Segment) Spill(path string) {
	s.InMemory = false
	s.Path = path
}

// Sorted reports whether the real records are in cmp order (used by
// tests and invariant checks).
func (s *Segment) Sorted(cmp mr.KeyComparator) bool {
	return sort.SliceIsSorted(s.Records, func(i, j int) bool { return cmp(s.Records[i].Key, s.Records[j].Key) < 0 })
}

// TotalLogicalBytes sums logical bytes across segments.
func TotalLogicalBytes(segs []*Segment) int64 {
	var n int64
	for _, s := range segs {
		n += s.LogicalBytes
	}
	return n
}

// TotalLogicalRecords sums logical records across segments.
func TotalLogicalRecords(segs []*Segment) int64 {
	var n int64
	for _, s := range segs {
		n += s.LogicalRecords
	}
	return n
}

// TotalRealRecords sums sampled real records across segments.
func TotalRealRecords(segs []*Segment) int {
	n := 0
	for _, s := range segs {
		n += len(s.Records)
	}
	return n
}

// MergeSegments performs an exact k-way merge of the inputs' real records
// via an MPQ and returns a new in-memory segment whose logical sizes are
// the sums of the inputs'.
func MergeSegments(id string, cmp mr.KeyComparator, inputs []*Segment) *Segment {
	mpq := NewMPQ(cmp, inputs, nil)
	out := make([]mr.Record, 0, TotalRealRecords(inputs))
	for {
		rec, ok := mpq.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return &Segment{
		ID:             id,
		InMemory:       true,
		LogicalBytes:   TotalLogicalBytes(inputs),
		LogicalRecords: TotalLogicalRecords(inputs),
		Records:        out,
	}
}

// Positions is a snapshot of per-segment cursor offsets, in the same
// order as the segment list it was captured from. It is the "offset of
// the file for the next <k',v'> pair" of the paper's reduce-stage log
// record (Fig. 6, right column).
type Positions []int

// Clone returns a copy.
func (p Positions) Clone() Positions {
	q := make(Positions, len(p))
	copy(q, p)
	return q
}

func (p Positions) String() string { return fmt.Sprintf("%v", []int(p)) }
