package workloads

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"alm/internal/mr"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"terasort", "Wordcount", "SECONDARYSORT"} {
		w, err := ByName(name)
		if err != nil || w == nil {
			t.Fatalf("ByName(%q) = %v, %v", name, w, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestTerasortIdentityAndOrder(t *testing.T) {
	w := Terasort()
	recs := w.Gen(rand.New(rand.NewSource(1)), 50)
	if len(recs) != 50 {
		t.Fatalf("Gen produced %d records, want 50", len(recs))
	}
	var out []mr.Record
	for _, r := range recs {
		w.Map(r.Key, r.Value, func(k, v string) { out = append(out, mr.Record{Key: k, Value: v}) })
	}
	if len(out) != 50 {
		t.Fatalf("identity map emitted %d records, want 50", len(out))
	}
	for i, r := range out {
		if r.Key != recs[i].Key || r.Value != recs[i].Value {
			t.Fatalf("map not identity at %d", i)
		}
	}
}

func TestRangePartitionerMonotone(t *testing.T) {
	p := RangePartitioner("0123456789abcdef")
	keys := []string{"00aa", "3fx", "80zz", "a0", "ff"}
	last := -1
	for _, k := range keys {
		part := p(k, 8)
		if part < last {
			t.Fatalf("partitioner not monotone: %q -> %d after %d", k, part, last)
		}
		if part < 0 || part >= 8 {
			t.Fatalf("partition out of range: %d", part)
		}
		last = part
	}
	if p("anything", 1) != 0 {
		t.Fatal("single partition must map to 0")
	}
}

// Property: range partitioning preserves order — if key a sorts before
// key b then partition(a) <= partition(b).
func TestQuickRangePartitionerOrderPreserving(t *testing.T) {
	p := RangePartitioner("0123456789abcdef")
	alphabet := "0123456789abcdef"
	gen := func(rng *rand.Rand) string {
		b := make([]byte, 4)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		if a > b {
			a, b = b, a
		}
		return p(a, 20) <= p(b, 20)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWordcountEndToEnd(t *testing.T) {
	w := Wordcount()
	recs := w.Gen(rand.New(rand.NewSource(2)), 100)
	// Map all records, count by hand, then reduce per key and compare.
	counts := map[string]int{}
	byKey := map[string][]string{}
	for _, r := range recs {
		w.Map(r.Key, r.Value, func(k, v string) {
			counts[k]++
			byKey[k] = append(byKey[k], v)
		})
	}
	if len(counts) == 0 {
		t.Fatal("wordcount produced no words")
	}
	for k, vs := range byKey {
		var got string
		w.Reduce(k, vs, func(_, v string) { got = v })
		n, err := strconv.Atoi(got)
		if err != nil || n != counts[k] {
			t.Fatalf("reduce(%q) = %q, want %d", k, got, counts[k])
		}
	}
}

func TestWordcountSkew(t *testing.T) {
	w := Wordcount()
	recs := w.Gen(rand.New(rand.NewSource(3)), 500)
	counts := map[string]int{}
	for _, r := range recs {
		w.Map(r.Key, r.Value, func(k, _ string) { counts[k]++ })
	}
	// The most frequent word must dominate (skewed draw).
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if float64(max) < 0.05*float64(total) {
		t.Fatalf("vocabulary draw looks uniform: max=%d total=%d", max, total)
	}
}

func TestSecondarysortGroupingAndOrder(t *testing.T) {
	w := Secondarysort()
	recs := w.Gen(rand.New(rand.NewSource(4)), 300)
	type kv struct{ k, v string }
	var inter []kv
	for _, r := range recs {
		w.Map(r.Key, r.Value, func(k, v string) { inter = append(inter, kv{k, v}) })
	}
	sort.Slice(inter, func(i, j int) bool { return inter[i].k < inter[j].k })
	// Group with the workload grouper; check secondary keys ascend within
	// each group.
	grouper := w.Group()
	for i := 1; i < len(inter); i++ {
		if grouper(inter[i-1].k, inter[i].k) {
			s1 := strings.SplitN(inter[i-1].k, "#", 2)[1]
			s2 := strings.SplitN(inter[i].k, "#", 2)[1]
			if s1 > s2 {
				t.Fatalf("secondary keys out of order in group: %q then %q", inter[i-1].k, inter[i].k)
			}
		}
	}
	// All composite keys of one primary land in one partition.
	part := w.Part()
	if part("p001#00001", 20) != part("p001#99999", 20) {
		t.Fatal("same primary key split across partitions")
	}
}

func TestSecondarysortReduceSummary(t *testing.T) {
	w := Secondarysort()
	var out []mr.Record
	w.Reduce("p007#00001", []string{"a", "b", "c"}, func(k, v string) {
		out = append(out, mr.Record{Key: k, Value: v})
	})
	if len(out) != 1 || out[0].Key != "p007" {
		t.Fatalf("reduce output = %v, want key p007", out)
	}
	if !strings.Contains(out[0].Value, "n=3") || !strings.Contains(out[0].Value, "first=a") || !strings.Contains(out[0].Value, "last=c") {
		t.Fatalf("reduce summary = %q", out[0].Value)
	}
}

func TestGenDeterministic(t *testing.T) {
	for _, w := range []*Workload{Terasort(), Wordcount(), Secondarysort()} {
		a := w.Gen(rand.New(rand.NewSource(9)), 20)
		b := w.Gen(rand.New(rand.NewSource(9)), 20)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Gen not deterministic at %d", w.Name, i)
			}
		}
	}
}

func TestSizeModelsSane(t *testing.T) {
	for _, w := range []*Workload{Terasort(), Wordcount(), Secondarysort()} {
		if w.AvgRecordBytes <= 0 || w.MapOutputRatio <= 0 || w.ReduceOutputRatio <= 0 {
			t.Fatalf("%s has non-positive size model: %+v", w.Name, w)
		}
	}
}

// TestMapOutputMemo checks MapOutput against a direct build of the same
// split (Gen, Map, partition, stable sort, and for Wordcount a per-key
// sum), that a repeated call returns the memoised slices, and that a new
// geometry replaces them.
func TestMapOutputMemo(t *testing.T) {
	const seed, reduces = 11, 5
	for _, w := range []*Workload{Terasort(), Wordcount(), Secondarysort()} {
		for split := 0; split < 3; split++ {
			got := w.MapOutput(seed, split, reduces)
			want := make([][]mr.Record, reduces)
			for _, in := range w.Gen(rand.New(rand.NewSource(seed*1_000_003+int64(split))), SamplePerSplit) {
				w.Map(in.Key, in.Value, func(k, v string) {
					p := w.Part()(k, reduces)
					want[p] = append(want[p], mr.Record{Key: k, Value: v})
				})
			}
			for r := range want {
				sort.SliceStable(want[r], func(i, j int) bool { return w.Cmp()(want[r][i].Key, want[r][j].Key) < 0 })
				if w.Combine != nil {
					want[r] = sumRuns(want[r])
				}
				if len(got[r]) != len(want[r]) || cap(got[r]) != len(got[r]) {
					t.Fatalf("%s split %d part %d: len %d cap %d, want len %d, capped", w.Name, split, r, len(got[r]), cap(got[r]), len(want[r]))
				}
				for i := range want[r] {
					if got[r][i] != want[r][i] {
						t.Fatalf("%s split %d part %d record %d: %v, want %v", w.Name, split, r, i, got[r][i], want[r][i])
					}
				}
			}
			if again := w.MapOutput(seed, split, reduces); &again[0] != &got[0] {
				t.Fatalf("%s split %d: repeated call rebuilt the split", w.Name, split)
			}
		}
		first := w.MapOutput(seed, 0, reduces)
		w.MapOutput(seed+1, 0, reduces)
		if again := w.MapOutput(seed, 0, reduces); &again[0] == &first[0] {
			t.Fatalf("%s: a new geometry did not replace the memo", w.Name)
		}
	}
}

// sumRuns collapses runs of equal keys in sorted records into one record
// carrying the sum of their counts.
func sumRuns(recs []mr.Record) []mr.Record {
	var out []mr.Record
	for i := 0; i < len(recs); {
		j, sum := i, 0
		for ; j < len(recs) && recs[j].Key == recs[i].Key; j++ {
			n, _ := strconv.Atoi(recs[j].Value)
			sum += n
		}
		out = append(out, mr.Record{Key: recs[i].Key, Value: strconv.Itoa(sum)})
		i = j
	}
	return out
}
