package perf

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkHarness exposes every harness entry to `go test -bench`, for
// profiling one entry (e.g. -bench Harness/fig4_heap_load -cpuprofile).
func BenchmarkHarness(b *testing.B) {
	for _, bm := range Benchmarks() {
		b.Run(bm.Name, bm.Func)
	}
}

func TestHarnessNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, bm := range Benchmarks() {
		if seen[bm.Name] {
			t.Errorf("duplicate harness entry %q", bm.Name)
		}
		seen[bm.Name] = true
		if bm.Desc == "" || bm.Func == nil {
			t.Errorf("harness entry %q incomplete", bm.Name)
		}
	}
}

// TestCheckBudgets: a measurement within Tolerance of its pin passes on
// both sides; past it, above is a regression that names the profiling
// command and below is a stale pin that names the values to re-pin.
func TestCheckBudgets(t *testing.T) {
	pin := Budget{AllocsPerOp: 100_000, BytesPerOp: 10_000_000}
	slack := int64(float64(pin.AllocsPerOp) * Tolerance)
	cases := []struct {
		name   string
		allocs int64
		bytes  int64
		want   []string // substrings, one per expected line
	}{
		{"at pin", 100_000, 10_000_000, nil},
		{"within above", 100_000 + slack, 10_000_000, nil},
		{"within below", 100_000 - slack, 10_000_000, nil},
		{"over", 100_000 + slack + 1, 10_000_000, []string{
			fmt.Sprintf("entry: %d allocs/op is %+d (", 100_000+slack+1, slack+1),
			"from its pin 100000: a regression",
			"-bench 'Harness/entry$' -benchtime 1x -memprofilerate 1 -memprofile mem.out",
			"go tool pprof -sample_index=alloc_objects -top mem.out"}},
		{"under", 100_000 - slack - 1, 10_000_000, []string{
			fmt.Sprintf("entry: %d allocs/op is %+d (", 100_000-slack-1, -slack-1),
			fmt.Sprintf("from its pin 100000: the pin is stale; re-pin it to Budget{AllocsPerOp: %d, BytesPerOp: 10000000}", 100_000-slack-1)}},
		{"bytes over", 100_000, 11_000_000, []string{
			"entry: 11000000 B/op is +1000000 (+10.00%) from its pin 10000000: a regression",
			"-sample_index=alloc_space"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := CheckBudgets([]Result{{Name: "entry", AllocsPerOp: tc.allocs, BytesPerOp: tc.bytes, Budget: pin}})
			if len(tc.want) == 0 {
				if len(got) != 0 {
					t.Fatalf("want no breach, got %q", got)
				}
				return
			}
			if len(got) != 1 {
				t.Fatalf("want one breach, got %q", got)
			}
			for _, w := range tc.want {
				if !strings.Contains(got[0], w) {
					t.Errorf("breach %q\nlacks %q", got[0], w)
				}
			}
		})
	}
}
