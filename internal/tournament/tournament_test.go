package tournament

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alm/internal/chaos"
	"alm/internal/faults"
)

var updateLeague = flag.Bool("update-league", false,
	"rewrite testdata/league-28-6.golden from the current tournament output")

func sched(kinds ...faults.ActionKind) *chaos.Schedule {
	s := &chaos.Schedule{}
	for _, k := range kinds {
		s.Injections = append(s.Injections, faults.Injection{Do: faults.Action{Kind: k}})
	}
	return s
}

func TestClassifyPrecedence(t *testing.T) {
	cases := []struct {
		name string
		s    *chaos.Schedule
		want Class
	}{
		{"crash-beats-dark", sched(faults.PartitionNode, faults.CrashNode), ClassCrash},
		{"rack-crash", sched(faults.FailTask, faults.CrashRack), ClassCrash},
		{"dark-beats-gray", sched(faults.SlowNode, faults.StopNodeNetwork), ClassDark},
		{"gray-beats-taskkill", sched(faults.FailTask, faults.FlakyLink), ClassGray},
		{"nic-is-gray", sched(faults.DegradeNIC), ClassGray},
		{"tier-crash-is-crash", sched(faults.SlowNode, faults.CrashTierNode), ClassCrash},
		{"hot-partition-is-gray", sched(faults.FailTask, faults.HotPartition), ClassGray},
		{"taskkill-only", sched(faults.FailTask, faults.FailTask), ClassTaskKill},
		{"empty", sched(), ClassTaskKill},
	}
	for _, c := range cases {
		if got := Classify(c.s); got != c.want {
			t.Errorf("%s: Classify = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestLeagueGolden pins the deterministic league table for the smoke
// range (`almrun -tournament -seed 28 -seeds 6`): ≥3 fault classes,
// all registered policies, with populated regret and backup columns.
func TestLeagueGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament sweep is not short")
	}
	res, err := Run(Options{FirstSeed: 28, Seeds: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Format()

	if len(res.Tables) < 3 {
		t.Fatalf("smoke range covers %d fault classes, want >= 3", len(res.Tables))
	}
	if len(res.Policies) < 4 {
		t.Fatalf("smoke range races %d policies, want >= 4", len(res.Policies))
	}
	var regret float64
	for _, s := range res.Scores {
		if !s.Completed {
			t.Errorf("policy %s did not recover seed %d", s.Policy, s.Seed)
		}
		regret += s.TotalRegret
	}
	if regret == 0 {
		t.Error("no run recorded counterfactual regret; the smoke range lost its constraint-hitting seed")
	}

	path := filepath.Join("testdata", "league-28-6.golden")
	if *updateLeague {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-league): %v", err)
	}
	if got != string(want) {
		t.Errorf("league table changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestStandingsAndSeedDetailGolden pins the regret-weighted standings
// and the per-seed drill-down for the same smoke range as the league
// table. Regenerate all three goldens with -update-league.
func TestStandingsAndSeedDetailGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament sweep is not short")
	}
	res, err := Run(Options{FirstSeed: 28, Seeds: 6})
	if err != nil {
		t.Fatal(err)
	}

	standings := res.Standings()
	if len(standings) != len(res.Policies) {
		t.Fatalf("standings cover %d policies, want %d", len(standings), len(res.Policies))
	}
	var points int
	for i, st := range standings {
		points += st.Points
		if i > 0 && st.Score > standings[i-1].Score {
			t.Fatalf("standings not sorted by score: %v", standings)
		}
	}
	if points == 0 {
		t.Fatal("no standings points awarded across the smoke range")
	}
	if got := res.FormatSeedDetail(9999); !strings.Contains(got, "not in tournament range") {
		t.Fatalf("out-of-range seed detail = %q", got)
	}

	for _, g := range []struct{ name, got string }{
		{"standings-28-6.golden", res.FormatStandings()},
		{"seed-detail-28.golden", res.FormatSeedDetail(28)},
	} {
		path := filepath.Join("testdata", g.name)
		if *updateLeague {
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update-league): %v", err)
		}
		if g.got != string(want) {
			t.Errorf("%s changed:\n got:\n%s\nwant:\n%s", g.name, g.got, want)
		}
	}
}

// TestDeterminism re-runs a small tournament and requires byte-identical
// tables — the property the Makefile smoke diff rests on.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament sweep is not short")
	}
	opts := Options{FirstSeed: 11, Seeds: 2, Policies: []string{"yarn", "alm", "binocular", "atlas"}}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Errorf("tournament not deterministic:\nfirst:\n%s\nsecond:\n%s", a.Format(), b.Format())
	}
}

// TestWorkerParity requires the league table and the standings to be
// byte-identical at any worker count — the contract that lets the
// Makefile smoke diff and the checked-in goldens ignore -workers.
func TestWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament sweep is not short")
	}
	run := func(workers int) *Result {
		res, err := Run(Options{FirstSeed: 11, Seeds: 2, Workers: workers,
			Policies: []string{"yarn", "alm", "binocular", "atlas"}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if a, b := serial.Format(), parallel.Format(); a != b {
		t.Errorf("league table differs between 1 and 8 workers:\nserial:\n%s\nparallel:\n%s", a, b)
	}
	if a, b := serial.FormatStandings(), parallel.FormatStandings(); a != b {
		t.Errorf("standings differ between 1 and 8 workers:\nserial:\n%s\nparallel:\n%s", a, b)
	}
}
