// Package metrics is a deterministic, labels-aware metrics registry for
// the simulated cluster: counters, gauges and fixed-bucket histograms,
// plus span-style timing layered on the sim virtual clock.
//
// Determinism is the design constraint everything else bends around. The
// paper's evaluation compares per-seed runs byte for byte, so snapshots
// iterate in sorted series order, histogram bucket layouts are fixed at
// creation, and no wall-clock or global random state is consulted —
// identical seeded runs render identical Prometheus text and JSON.
//
// A Registry is owned by a single simulation goroutine (the sim engine is
// single-threaded) and is not internally synchronised; cross-run
// aggregation happens on immutable Snapshots, which are safe to merge and
// render from any goroutine.
//
// Every constructor and handle is nil-safe: methods on a nil *Registry
// return nil handles, and nil handles ignore updates. Components can
// therefore hold an optional registry without guarding every increment.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"alm/internal/sim"
)

// Kind classifies a series.
type Kind uint8

// Series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Label is one name/value pair.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// series is the registry's internal state for one (name, labels) pair.
type series struct {
	name   string
	labels []Label
	key    string // name + rendered labels, the sort and lookup key
	kind   Kind

	value  float64 // counter / gauge
	bounds []float64
	counts []uint64 // per-bound cumulative-later counts (stored non-cumulative)
	sum    float64
	count  uint64

	dirty bool

	// Cached handle singletons: repeat Counter/Gauge/Histogram calls for an
	// existing series return the same pointer instead of allocating a new
	// two-word handle each time.
	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds the live series of one run.
type Registry struct {
	byKey map[string]*series
	// dirtyList collects series touched since the last TakeDelta, each at
	// most once (the series' dirty flag dedups).
	dirtyList []*series
	// keyScratch/labScratch back the zero-allocation hit path of lookup:
	// the candidate key renders into keyScratch and is probed with a
	// string([]byte) map index, which Go compiles without materialising
	// the string. Only a miss (series creation) allocates.
	keyScratch []byte
	labScratch []Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// DefTimeBuckets is the fixed histogram layout for durations in seconds,
// spanning sub-second fetch round trips to multi-hour job phases.
var DefTimeBuckets = []float64{0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

// seriesKey renders the canonical key: name{k="v",...} with labels sorted
// by name. It doubles as the Prometheus sample line prefix.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	return string(appendSeriesKey(nil, name, labels))
}

// appendSeriesKey renders the canonical key into b. The lookup hit path
// and the exporters share this appender so the rendered bytes are
// identical everywhere a key appears.
func appendSeriesKey(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, '=', '"')
		b = appendEscapedLabelValue(b, l.Value)
		b = append(b, '"')
	}
	return append(b, '}')
}

// appendEscapedLabelValue applies the Prometheus text-format escapes.
func appendEscapedLabelValue(b []byte, v string) []byte {
	if !strings.ContainsAny(v, "\\\"\n") {
		return append(b, v...)
	}
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, v[i])
		}
	}
	return b
}

// pairsToLabels converts variadic "k1, v1, k2, v2" arguments into a
// sorted label set. Malformed pairs panic: handle creation is programmer
// territory, not runtime input.
func pairsToLabels(pairs []string) []Label {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label pairs %q", pairs))
	}
	ls := make([]Label, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// lookup returns the series for (name, labels), creating it with the
// given kind on first use. A kind clash panics — two components binding
// one name to different kinds is a bug, not a runtime condition.
//
// The hit path is allocation-free: labels sort into labScratch (insertion
// sort, same order sort.Slice produces for the tiny distinct-name sets
// used here), the key renders into keyScratch, and the map probe uses the
// string([]byte) conversion the compiler elides. Labels and key are only
// materialised on a miss — label-set interning, once per series lifetime.
func (r *Registry) lookup(name string, kind Kind, bounds []float64, pairs []string) *series {
	if len(pairs)%2 != 0 {
		// The pairs slice must not be mentioned here: passing it to fmt
		// would make it escape and put an allocation on every lookup.
		panic("metrics: odd label pairs for series " + name)
	}
	ls := r.labScratch[:0]
	for i := 0; i < len(pairs); i += 2 {
		l := Label{Name: pairs[i], Value: pairs[i+1]}
		j := len(ls)
		ls = append(ls, l)
		for j > 0 && ls[j-1].Name > l.Name {
			ls[j] = ls[j-1]
			j--
		}
		ls[j] = l
	}
	r.labScratch = ls
	buf := appendSeriesKey(r.keyScratch[:0], name, ls)
	r.keyScratch = buf
	if s, ok := r.byKey[string(buf)]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: series %s registered as %v, requested as %v", s.key, s.kind, kind))
		}
		return s
	}
	key := string(buf)
	var labels []Label
	if len(ls) > 0 {
		labels = append(labels, ls...)
	}
	s := &series{name: name, labels: labels, key: key, kind: kind}
	if kind == KindHistogram {
		s.bounds = bounds
		s.counts = make([]uint64, len(bounds)+1) // +1 for the +Inf bucket
	}
	r.byKey[key] = s
	return s
}

func (r *Registry) touch(s *series) {
	if !s.dirty {
		s.dirty = true
		r.dirtyList = append(r.dirtyList, s)
	}
}

// Counter is a monotonically increasing series handle.
type Counter struct {
	r *Registry
	s *series
}

// Counter returns the counter handle for (name, labels), creating it on
// first use. Labels are variadic name/value pairs. Handles are interned:
// repeat calls for the same series return the same pointer.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, KindCounter, nil, labelPairs)
	if s.c == nil {
		s.c = &Counter{r: r, s: s}
	}
	return s.c
}

// Add increments the counter. Negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	c.s.value += v
	c.r.touch(c.s)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current total (0 on a nil handle).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.s.value
}

// Gauge is a series handle whose value moves both ways.
type Gauge struct {
	r *Registry
	s *series
}

// Gauge returns the gauge handle for (name, labels), creating it on
// first use. Handles are interned like Counter's.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, KindGauge, nil, labelPairs)
	if s.g == nil {
		s.g = &Gauge{r: r, s: s}
	}
	return s.g
}

// Set assigns the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if g.s.value != v {
		g.s.value = v
		g.r.touch(g.s)
	}
}

// Add moves the gauge by delta.
func (g *Gauge) Add(v float64) {
	if g == nil || v == 0 {
		return
	}
	g.s.value += v
	g.r.touch(g.s)
}

// Value reports the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.s.value
}

// Histogram is a fixed-bucket distribution handle.
type Histogram struct {
	r *Registry
	s *series
}

// Histogram returns the histogram handle for (name, labels), creating it
// with the given bucket bounds on first use. Bounds must be sorted
// ascending; nil means DefTimeBuckets. The layout is fixed at creation —
// later calls with different bounds reuse the original layout, keeping
// per-seed output byte-identical regardless of call order.
func (r *Registry) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefTimeBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	s := r.lookup(name, KindHistogram, bounds, labelPairs)
	if s.h == nil {
		s.h = &Histogram{r: r, s: s}
	}
	return s.h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	s := h.s
	idx := sort.SearchFloat64s(s.bounds, v) // first bound >= v
	s.counts[idx]++
	s.sum += v
	s.count++
	h.r.touch(s)
}

// Span is an in-flight timed section bound to a histogram; End observes
// the elapsed virtual time in seconds. Layered on the sim clock, spans
// cost two plain reads of Engine.Now — no wall clock anywhere.
type Span struct {
	h     *Histogram
	start sim.Time
}

// StartSpan opens a span at the given virtual time.
func StartSpan(h *Histogram, at sim.Time) Span { return Span{h: h, start: at} }

// End closes the span at the given virtual time. Ends before the start
// (possible when a component reuses a zero Span) observe zero.
func (sp Span) End(at sim.Time) {
	if sp.h == nil {
		return
	}
	d := at - sp.start
	if d < 0 {
		d = 0
	}
	sp.h.Observe(d.Seconds())
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Series is one immutable exported series.
type Series struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   Kind    `json:"kind"`
	// Value is the counter total or gauge level.
	Value float64 `json:"value,omitempty"`
	// Histogram payload: cumulative buckets ending at +Inf, plus sum and
	// count of observations.
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`

	key string
}

// export renders the series' current state.
func (s *series) export() Series {
	out := Series{
		Name: s.name,
		// The registry never mutates a series' labels after creation and
		// Series is immutable by contract, so the slice is shared, not
		// cloned — export runs on every TakeDelta tick.
		Labels: s.labels,
		Kind:   s.kind,
		key:    s.key,
	}
	switch s.kind {
	case KindHistogram:
		out.Buckets = make([]Bucket, 0, len(s.counts))
		cum := uint64(0)
		for i, c := range s.counts {
			cum += c
			le := inf
			if i < len(s.bounds) {
				le = s.bounds[i]
			}
			out.Buckets = append(out.Buckets, Bucket{LE: le, Count: cum})
		}
		out.Sum = s.sum
		out.Count = s.count
	default:
		out.Value = s.value
	}
	return out
}

// Snapshot is a sorted, immutable copy of a registry's series — the unit
// the exporters and the merge logic operate on.
type Snapshot struct {
	Series []Series `json:"series"`
}

// Snapshot exports every series in sorted key order. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	ordered := make([]*series, 0, len(r.byKey))
	for _, s := range r.byKey {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })
	for _, s := range ordered {
		snap.Series = append(snap.Series, s.export())
	}
	return snap
}

// TakeDelta exports the series touched since the previous TakeDelta (or
// since creation), sorted by key, and resets the dirty marks. Streaming
// observers consume these instead of diffing full snapshots.
func (r *Registry) TakeDelta() []Series {
	if r == nil || len(r.dirtyList) == 0 {
		return nil
	}
	out := make([]Series, 0, len(r.dirtyList))
	for _, s := range r.dirtyList {
		s.dirty = false
		out = append(out, s.export())
	}
	r.dirtyList = r.dirtyList[:0]
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Merge folds other into s: counters and histograms sum, gauges keep the
// maximum (order-independent, so aggregation over a set of snapshots is
// deterministic regardless of merge order).
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	idx := make(map[string]int, len(s.Series))
	for i := range s.Series {
		idx[s.Series[i].key] = i
	}
	for _, src := range other.Series {
		i, ok := idx[src.key]
		if !ok {
			cp := src
			cp.Labels = append([]Label(nil), src.Labels...)
			cp.Buckets = append([]Bucket(nil), src.Buckets...)
			idx[cp.key] = len(s.Series)
			s.Series = append(s.Series, cp)
			continue
		}
		dst := &s.Series[i]
		if dst.Kind != src.Kind {
			continue // kind clash across runs: keep the first, skip the rest
		}
		switch src.Kind {
		case KindCounter:
			dst.Value += src.Value
		case KindGauge:
			if src.Value > dst.Value {
				dst.Value = src.Value
			}
		case KindHistogram:
			if len(dst.Buckets) == len(src.Buckets) {
				for b := range dst.Buckets {
					dst.Buckets[b].Count += src.Buckets[b].Count
				}
				dst.Sum += src.Sum
				dst.Count += src.Count
			}
		}
	}
	sort.Slice(s.Series, func(i, j int) bool { return s.Series[i].key < s.Series[j].key })
}

// Value looks up a series by name and label pairs and returns its counter
// or gauge value (diagnostic/test helper).
func (s *Snapshot) Value(name string, labelPairs ...string) (float64, bool) {
	key := seriesKey(name, pairsToLabels(labelPairs))
	for i := range s.Series {
		if s.Series[i].key == key {
			return s.Series[i].Value, true
		}
	}
	return 0, false
}

// Len reports how many series the snapshot holds.
func (s *Snapshot) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Series)
}
