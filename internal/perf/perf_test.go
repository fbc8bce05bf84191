package perf

import "testing"

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
