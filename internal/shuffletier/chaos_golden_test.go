package shuffletier_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"alm/internal/chaos"
)

var update = flag.Bool("update", false,
	"rewrite testdata/shuffle-chaos-11-4.golden from the current sweep transcript")

// TestShuffleChaosGolden renders the transcript of
// `almrun -chaos -shuffle=remote -seed 11 -seeds 4` — the {yarn,alm} ×
// remote-shuffle invariant matrix with seeded tier faults in the draw —
// and diffs it against the checked-in golden. It catches both invariant
// violations and drift in the seeded tier fault schedules.
func TestShuffleChaosGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 full simulations")
	}
	var buf bytes.Buffer
	chaos.Sweep(&buf, 11, 4, 2, true, false, nil)
	path := filepath.Join("testdata", "shuffle-chaos-11-4.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("shuffle chaos transcript changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
