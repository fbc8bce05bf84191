// Package trace collects what the paper's profiling collects: discrete
// failure/recovery events and continuous progress timelines (e.g. "reduce
// progress over time", Figs. 3, 4, 10), plus free-form counters.
package trace

import (
	"sort"
	"strconv"

	"alm/internal/sim"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the runtime.
const (
	KindTaskLaunched   Kind = "task-launched"
	KindTaskFinished   Kind = "task-finished"
	KindTaskFailed     Kind = "task-failed"
	KindTaskKilled     Kind = "task-killed"
	KindNodeCrashed    Kind = "node-crashed"
	KindNodeDetected   Kind = "node-failure-detected"
	KindFetchFailure   Kind = "fetch-failure"
	KindMapRescheduled Kind = "map-rescheduled"
	KindLogSnapshot    Kind = "alg-log-snapshot"
	KindLogRestored    Kind = "alg-log-restored"
	KindFCMStarted     Kind = "fcm-started"
	KindWaitAdvisory   Kind = "wait-advisory"
	KindNodeHealed     Kind = "node-healed"
	KindLinkFlaky      Kind = "link-flaky"
	KindLinkHealed     Kind = "link-healed"
	KindFetchRetry     Kind = "fetch-retry"
	KindJobFinished    Kind = "job-finished"
	KindJobFailed      Kind = "job-failed"
	// KindSpeculationCap marks a straggler left without a backup because
	// the speculative budget was exhausted mid-scan.
	KindSpeculationCap Kind = "speculation-cap"
	// KindPolicyDecision is a recovery-policy decision trace (emitted only
	// when JobSpec.DecisionTrace is on; see engine/policy.go).
	KindPolicyDecision Kind = "policy-decision"
	// Remote-shuffle-tier events (internal/shuffletier; emitted only in
	// Shuffle.Remote runs so legacy traces stay byte-identical).
	KindTierCommitted    Kind = "tier-committed"
	KindTierNodeLost     Kind = "tier-node-lost"
	KindTierReplicated   Kind = "tier-replicated"
	KindTierRepush       Kind = "tier-repush"
	KindTierBackpressure Kind = "tier-backpressure"
	KindTierHotPartition Kind = "tier-hot-partition"
)

// Event is one discrete occurrence.
type Event struct {
	At     sim.Time
	Kind   Kind
	Task   string // task attempt id or "" for node/job events
	Node   string
	Detail string
}

// AppendTo appends the event's dump line to b and returns the extended
// slice. The layout is the historical fmt.Sprintf
// "%8.1fs %-22s %-18s %-8s %s" rendered byte-for-byte (a golden test
// locks it), without fmt's interface boxing on the dump path.
func (e Event) AppendTo(b []byte) []byte {
	var num [24]byte
	f := strconv.AppendFloat(num[:0], e.At.Seconds(), 'f', 1, 64)
	for n := 8 - len(f); n > 0; n-- {
		b = append(b, ' ')
	}
	b = append(b, f...)
	b = append(b, 's', ' ')
	b = appendPadded(b, string(e.Kind), 22)
	b = append(b, ' ')
	b = appendPadded(b, e.Task, 18)
	b = append(b, ' ')
	b = appendPadded(b, e.Node, 8)
	b = append(b, ' ')
	return append(b, e.Detail...)
}

// appendPadded appends s left-aligned in a field of at least w bytes.
func appendPadded(b []byte, s string, w int) []byte {
	b = append(b, s...)
	for n := w - len(s); n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

func (e Event) String() string {
	return string(e.AppendTo(nil))
}

// Point is one sample of a timeline series.
type Point struct {
	At    sim.Time
	Value float64
}

// Collector gathers events and timelines for one job run.
type Collector struct {
	Events []Event
	series map[string][]Point

	// OnEmit, when set, observes every event at the moment it is recorded
	// (in sim-time order, since the engine is single-threaded). The engine
	// uses it to feed metrics counters and streaming observers without a
	// second emission path.
	OnEmit func(Event)
}

// New returns an empty collector. The event buffer starts with room for
// a small run's worth of events and grows geometrically from there, so
// steady-state Emit is an amortised-free append.
func New() *Collector {
	return &Collector{
		Events: make([]Event, 0, 256),
		series: make(map[string][]Point),
	}
}

// Emit records a discrete event.
func (c *Collector) Emit(at sim.Time, kind Kind, task, node, detail string) {
	e := Event{At: at, Kind: kind, Task: task, Node: node, Detail: detail}
	c.Events = append(c.Events, e)
	if c.OnEmit != nil {
		c.OnEmit(e)
	}
}

// Sample appends one point to a named timeline.
func (c *Collector) Sample(series string, at sim.Time, v float64) {
	c.series[series] = append(c.series[series], Point{At: at, Value: v})
}

// Series returns the named timeline in sample order.
func (c *Collector) Series(name string) []Point { return c.series[name] }

// SeriesNames returns all timeline names, sorted.
func (c *Collector) SeriesNames() []string {
	names := make([]string, 0, len(c.series))
	for n := range c.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Count returns how many events of the given kind were recorded.
func (c *Collector) Count(kind Kind) int {
	n := 0
	for _, e := range c.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// CountMatching returns how many events satisfy pred.
func (c *Collector) CountMatching(pred func(Event) bool) int {
	n := 0
	for _, e := range c.Events {
		if pred(e) {
			n++
		}
	}
	return n
}

// First returns the first event of the given kind, or nil.
func (c *Collector) First(kind Kind) *Event {
	for i := range c.Events {
		if c.Events[i].Kind == kind {
			return &c.Events[i]
		}
	}
	return nil
}

// Dump renders all events as a multi-line string (debug aid).
func (c *Collector) Dump() string {
	b := make([]byte, 0, 64*len(c.Events))
	for _, e := range c.Events {
		b = e.AppendTo(b)
		b = append(b, '\n')
	}
	return string(b)
}

// ValueAt returns the last sample value of a series at or before t, or 0.
func (c *Collector) ValueAt(series string, t sim.Time) float64 {
	pts := c.series[series]
	v := 0.0
	for _, p := range pts {
		if p.At > t {
			break
		}
		v = p.Value
	}
	return v
}
