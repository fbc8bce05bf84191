// Package workloads defines the three benchmarks the paper evaluates —
// Terasort, Wordcount and Secondarysort — as real map/reduce functions
// plus the logical-size ratios used for paper-scale time accounting.
//
// Each workload supplies a deterministic sample-record generator: a split
// of logical size S materialises a bounded number of real records that
// flow through the full sort/shuffle/merge/reduce pipeline, while S
// drives the virtual-time charges.
package workloads

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"alm/internal/mr"
)

// Workload bundles a benchmark's user code and size model.
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

	// Gen materialises n deterministic sample input records. It must not
	// keep rng past the call: the engine reseeds the same *rand.Rand for
	// the next split.
	Gen func(rng *rand.Rand, n int) []mr.Record
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
			recs := make([]mr.Record, n)
			// Renders match the original fmt.Sprintf("payload-%08d", ...)
			// byte-for-byte, and the rng draw sequence (10 key draws then
			// one payload draw per record) is unchanged — generated inputs,
			// and with them whole runs, stay bit-identical.
			var val [16]byte
			copy(val[:], "payload-")
			for i := range recs {
				var key [10]byte
				for j := range key {
					key[j] = keyAlphabet[rng.Intn(len(keyAlphabet))]
				}
				v := rng.Intn(1e8)
				for j := 15; j >= 8; j-- {
					val[j] = byte('0' + v%10)
					v /= 10
				}
				recs[i] = mr.Record{Key: string(key[:]), Value: string(val[:])}
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
