// Package workloads defines the three benchmarks the paper evaluates —
// Terasort, Wordcount and Secondarysort — as real map/reduce functions
// plus the logical-size ratios used for paper-scale time accounting.
//
// Each workload supplies a deterministic sample-record generator: a split
// of logical size S materialises a bounded number of real records that
// flow through the full sort/shuffle/merge/reduce pipeline, while S
// drives the virtual-time charges. MapOutput turns a split into those
// records, once per geometry, for every job that runs the workload.
package workloads

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"alm/internal/merge"
	"alm/internal/mr"
)

// Workload bundles a benchmark's user code and size model.
//
// A split's map output is a pure function of the workload, the seed, the
// split index and the reducer count, so MapOutput builds
// it once and every later map attempt of any job with the same geometry
// shares it. That makes two demands of the code a workload carries:
//
//   - Gen, Map, Combine, the partitioner and the comparators must be
//     pure: their results may depend on their arguments only (Gen's on
//     the draws it takes from its rng), never on state that changes
//     between calls.
//   - A workload must not be modified after its first Run: a changed
//     function would not reach the splits already built.
//
// A workload may be shared by any number of jobs, concurrently too. It
// keeps the splits of one geometry (seed, reducer count) alive for as
// long as it lives; a job with another geometry replaces them.
type Workload struct {
	Name string

	// AvgRecordBytes is the logical size of one input record; logical
	// record counts are derived from logical bytes with it.
	AvgRecordBytes int64
	// MapOutputRatio is intermediate bytes emitted per input byte
	// (post-combiner for Wordcount).
	MapOutputRatio float64
	// ReduceOutputRatio is final output bytes per intermediate byte.
	ReduceOutputRatio float64

	Map    mr.MapFunc
	Reduce mr.ReduceFunc
	// Combine, when non-nil, is applied per key on each map's output
	// bucket before the MOF is written (a Hadoop combiner). It must be
	// associative and type-compatible with Reduce's value stream.
	Combine mr.ReduceFunc

	// Optional overrides; nil means the mr defaults.
	Comparator  mr.KeyComparator
	Grouper     mr.GroupComparator
	Partitioner mr.Partitioner

	// Gen materialises n deterministic sample input records from rng's
	// draws. It must not keep rng past the call: MapOutput reseeds the
	// same *rand.Rand for the next split it builds.
	Gen func(rng *rand.Rand, n int) []mr.Record

	mu sync.Mutex
	// splits is allocated by the first MapOutput, so a workload that is
	// built but never run costs only these two fields.
	splits *splitMemo // guarded by mu
}

// splitMemo is a workload's built map output for one geometry.
type splitMemo struct {
	geo geometry
	// parts[split][r] is the split's sorted partition r; a nil entry is
	// a split not built yet.
	parts [][][]mr.Record
	// rng is reseeded for every split built, so the draws match a fresh
	// generator without its ~5 KB source.
	rng *rand.Rand
}

// SamplePerSplit is the number of real records materialised per input
// split: the split's logical size drives the virtual-time charges, these
// records the real sort, shuffle, merge and reduce.
const SamplePerSplit = 48

// geometry is what a split's map output depends on besides the workload
// and the split index.
type geometry struct {
	seed       int64
	numReduces int
}

// MapOutput returns the map output of input split split for a job with
// the given seed and NumReduces: the split's SamplePerSplit sample
// records from Gen, mapped, partitioned over numReduces, combined per key
// when the workload has a combiner, and stably sorted by Cmp within each
// partition. Element r holds partition r.
//
// The same arguments always yield the same records — the property ALG's
// log replay and map re-execution rely on. They are built on the first
// call and shared with every later caller of the same geometry, so
// callers must neither write to them nor append to them uncapped. A
// build runs under the workload's lock, so concurrent callers share one
// generator and wait for a split another caller is building; the
// workload's own functions must therefore not call MapOutput.
func (w *Workload) MapOutput(seed int64, split, numReduces int) [][]mr.Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.splits == nil {
		w.splits = &splitMemo{rng: rand.New(rand.NewSource(seed))}
	}
	m := w.splits
	if g := (geometry{seed, numReduces}); m.geo != g {
		m.geo = g
		clear(m.parts)
		m.parts = m.parts[:0]
	}
	for len(m.parts) <= split {
		m.parts = append(m.parts, nil)
	}
	if out := m.parts[split]; out != nil {
		return out
	}
	m.rng.Seed(seed*1_000_003 + int64(split))
	out := w.buildSplit(m.rng, numReduces)
	m.parts[split] = out
	return out
}

// buildSplit generates one split's sample records from rng and runs them
// through Map, the partitioner, the combiner and a stable sort.
func (w *Workload) buildSplit(rng *rand.Rand, numReduces int) [][]mr.Record {
	inputs := w.Gen(rng, SamplePerSplit)
	part := w.Part()
	buckets := make([][]mr.Record, numReduces)
	emit := func(k, v string) {
		p := part(k, numReduces)
		buckets[p] = append(buckets[p], mr.Record{Key: k, Value: v})
	}
	for _, rec := range inputs {
		w.Map(rec.Key, rec.Value, emit)
	}
	cmp := w.Cmp()
	total := 0
	for r, recs := range buckets {
		merge.SortRecordsStable(cmp, recs)
		if w.Combine != nil && len(recs) > 0 {
			// The combiner may emit keys of its own, so its output is
			// sorted again, like a Hadoop spill after the combiner.
			recs = w.combine(recs)
			merge.SortRecordsStable(cmp, recs)
		}
		buckets[r] = recs
		total += len(recs)
	}
	// The split outlives the job that built it, so its partitions are
	// packed into one exactly sized slice rather than keeping each
	// bucket's append slack alive.
	packed := make([]mr.Record, 0, total)
	for r, recs := range buckets {
		lo := len(packed)
		packed = append(packed, recs...)
		buckets[r] = packed[lo:len(packed):len(packed)]
	}
	return buckets
}

// combine applies the workload's combiner per exact key over one sorted
// bucket, like a Hadoop map-side combiner running over the sorted spill.
func (w *Workload) combine(recs []mr.Record) []mr.Record {
	var out []mr.Record
	emit := func(k, v string) {
		out = append(out, mr.Record{Key: k, Value: v})
	}
	var values []string
	i := 0
	for i < len(recs) {
		j := i + 1
		for j < len(recs) && recs[j].Key == recs[i].Key {
			j++
		}
		values = values[:0]
		for k := i; k < j; k++ {
			values = append(values, recs[k].Value)
		}
		w.Combine(recs[i].Key, values, emit)
		i = j
	}
	return out
}

// Comparators with defaults applied.
func (w *Workload) Cmp() mr.KeyComparator {
	if w.Comparator != nil {
		return w.Comparator
	}
	return mr.DefaultComparator
}

// Group returns the effective group comparator.
func (w *Workload) Group() mr.GroupComparator {
	if w.Grouper != nil {
		return w.Grouper
	}
	return mr.DefaultGrouper
}

// Part returns the effective partitioner.
func (w *Workload) Part() mr.Partitioner {
	if w.Partitioner != nil {
		return w.Partitioner
	}
	return mr.HashPartitioner
}

// ByName returns the named workload (terasort, wordcount, secondarysort).
func ByName(name string) (*Workload, error) {
	switch strings.ToLower(name) {
	case "terasort":
		return Terasort(), nil
	case "wordcount":
		return Wordcount(), nil
	case "secondarysort":
		return Secondarysort(), nil
	default:
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
}

// Terasort: 100-byte records with 10-byte keys; identity map and reduce;
// a range partitioner so concatenated reducer outputs are globally
// sorted. Intermediate data is as large as the input.
func Terasort() *Workload {
	const keyAlphabet = "0123456789abcdef"
	return &Workload{
		Name:              "terasort",
		AvgRecordBytes:    100,
		MapOutputRatio:    1.0,
		ReduceOutputRatio: 1.0,
		Map: func(k, v string, emit func(string, string)) {
			emit(k, v)
		},
		Reduce: func(k string, values []string, emit func(string, string)) {
			for _, v := range values {
				emit(k, v)
			}
		},
		Partitioner: RangePartitioner(keyAlphabet),
		Gen: func(rng *rand.Rand, n int) []mr.Record {
			const keyLen, recLen = 10, 26 // a 10-byte key, a 16-byte value
			// Every record's key and value are slices of one string, so a
			// split costs one allocation for its bytes, not two per
			// record. Renders match the original fmt.Sprintf("payload-%08d",
			// ...) byte-for-byte, and the rng draw sequence (10 key draws
			// then one payload draw per record) is unchanged — generated
			// inputs, and with them whole runs, stay bit-identical.
			var b strings.Builder
			b.Grow(n * recLen)
			var val [16]byte
			copy(val[:], "payload-")
			for i := 0; i < n; i++ {
				for j := 0; j < keyLen; j++ {
					b.WriteByte(keyAlphabet[rng.Intn(len(keyAlphabet))])
				}
				v := rng.Intn(1e8)
				for j := 15; j >= 8; j-- {
					val[j] = byte('0' + v%10)
					v /= 10
				}
				b.Write(val[:])
			}
			all := b.String()
			recs := make([]mr.Record, n)
			for i := range recs {
				rec := all[i*recLen : (i+1)*recLen]
				recs[i] = mr.Record{Key: rec[:keyLen], Value: rec[keyLen:]}
			}
			return recs
		},
	}
}

// RangePartitioner splits the key space by first character over the given
// sorted alphabet, so partition i holds keys that sort before partition
// i+1 — TeraSort's total-order guarantee.
func RangePartitioner(alphabet string) mr.Partitioner {
	return func(key string, numReduces int) int {
		if numReduces <= 1 {
			return 0
		}
		pos := 0.0
		if len(key) > 0 {
			idx := strings.IndexByte(alphabet, key[0])
			if idx < 0 {
				idx = 0
			}
			frac2 := 0.0
			if len(key) > 1 {
				if j := strings.IndexByte(alphabet, key[1]); j >= 0 {
					frac2 = float64(j) / float64(len(alphabet))
				}
			}
			pos = (float64(idx) + frac2) / float64(len(alphabet))
		}
		p := int(pos * float64(numReduces))
		if p >= numReduces {
			p = numReduces - 1
		}
		return p
	}
}

// wordVocabulary is a fixed vocabulary with a skewed (approximately
// Zipfian) draw, matching text-corpus behaviour.
var wordVocabulary = []string{
	"the", "of", "and", "to", "in", "a", "is", "that", "for", "it",
	"data", "map", "reduce", "node", "task", "failure", "cluster", "yarn",
	"merge", "shuffle", "log", "record", "key", "value", "disk", "network",
	"hadoop", "output", "input", "block", "file", "system", "time", "job",
}

// Wordcount: map splits lines into words and emits (word, 1); a combiner
// collapses per-map duplicates (modelled in MapOutputRatio); reduce sums.
// Output is tiny relative to intermediate data.
func Wordcount() *Workload {
	return &Workload{
		Name:              "wordcount",
		AvgRecordBytes:    80, // one text line
		MapOutputRatio:    0.25,
		ReduceOutputRatio: 0.02,
		Map: func(k, v string, emit func(string, string)) {
			for _, w := range strings.Fields(v) {
				emit(w, "1")
			}
		},
		Reduce:  sumValues,
		Combine: sumValues,
		Gen: func(rng *rand.Rand, n int) []mr.Record {
			recs := make([]mr.Record, n)
			// Key renders match fmt.Sprintf("line-%06d", i) byte-for-byte.
			var kb [11]byte
			copy(kb[:], "line-")
			for i := range recs {
				var b strings.Builder
				words := rng.Intn(6) + 5
				for j := 0; j < words; j++ {
					if j > 0 {
						b.WriteByte(' ')
					}
					// Skewed draw: square the uniform variate.
					u := rng.Float64()
					idx := int(u * u * float64(len(wordVocabulary)))
					if idx >= len(wordVocabulary) {
						idx = len(wordVocabulary) - 1
					}
					b.WriteString(wordVocabulary[idx])
				}
				v := i
				for j := 10; j >= 5; j-- {
					kb[j] = byte('0' + v%10)
					v /= 10
				}
				recs[i] = mr.Record{Key: string(kb[:]), Value: b.String()}
			}
			return recs
		},
	}
}

// Secondarysort: composite keys "primary#secondary"; the sort comparator
// orders by both parts while the grouper groups by the primary part only,
// so each reduce group sees its secondary values in sorted order. Reduce
// emits the per-primary ordered series (here: first and last, plus count,
// which is enough to verify ordering end to end).
func Secondarysort() *Workload {
	return &Workload{
		Name:              "secondarysort",
		AvgRecordBytes:    60,
		MapOutputRatio:    1.0,
		ReduceOutputRatio: 0.5,
		Map: func(k, v string, emit func(string, string)) {
			// Input value is "primary secondary payload".
			parts := strings.SplitN(v, " ", 3)
			if len(parts) < 2 {
				return
			}
			emit(parts[0]+"#"+parts[1], parts[len(parts)-1])
		},
		Reduce: func(k string, values []string, emit func(string, string)) {
			primary := k
			if i := strings.IndexByte(k, '#'); i >= 0 {
				primary = k[:i]
			}
			emit(primary, fmt.Sprintf("n=%d first=%s last=%s", len(values), values[0], values[len(values)-1]))
		},
		Grouper: func(a, b string) bool { return primaryOf(a) == primaryOf(b) },
		Partitioner: func(key string, numReduces int) int {
			return mr.HashPartitioner(primaryOf(key), numReduces)
		},
		Gen: func(rng *rand.Rand, n int) []mr.Record {
			recs := make([]mr.Record, n)
			for i := range recs {
				p := fmt.Sprintf("p%03d", rng.Intn(200))
				s := fmt.Sprintf("%05d", rng.Intn(100000))
				recs[i] = mr.Record{
					Key:   fmt.Sprintf("in-%06d", i),
					Value: fmt.Sprintf("%s %s payload%04d", p, s, rng.Intn(10000)),
				}
			}
			return recs
		},
	}
}

// sumValues folds integer counts — Wordcount's reduce and combiner.
func sumValues(k string, values []string, emit func(string, string)) {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		sum += n
	}
	emit(k, strconv.Itoa(sum))
}

func primaryOf(k string) string {
	if i := strings.IndexByte(k, '#'); i >= 0 {
		return k[:i]
	}
	return k
}
