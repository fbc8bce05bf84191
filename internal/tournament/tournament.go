// Package tournament races the registered recovery policies head-to-head
// under the chaos generator's seeded fault schedules and builds a
// deterministic league table per fault class. Where the chaos checker
// (internal/chaos) asserts invariants — every mode must recover — the
// tournament ranks: which policy recovers *fastest*, how many decisions
// it took, and how much counterfactual regret those decisions carried.
//
// Everything is a pure function of (first seed, seed count, budget,
// policy set): schedules come from chaos.Generate, the engine is
// deterministic, and the table formatting is fixed-order, so two runs of
// the same tournament emit byte-identical tables (TestLeagueGolden
// diffs one against a checked-in golden).
package tournament

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"alm/internal/chaos"
	"alm/internal/engine"
	"alm/internal/faults"
	"alm/internal/sweep"
)

// Class buckets a chaos schedule by its most severe fault action, so the
// league table can answer "who wins under crashes" separately from "who
// wins under gray degradation".
type Class string

// Fault classes, in decreasing severity. A schedule is classified by the
// most severe action it contains: crash (data destroyed) > dark (nodes
// unreachable, data intact) > gray (degraded but reachable) > task-kill
// (process-level failures only).
const (
	ClassCrash    Class = "crash"
	ClassDark     Class = "dark"
	ClassGray     Class = "gray"
	ClassTaskKill Class = "task-kill"
)

// classOrder fixes the table emission order.
var classOrder = []Class{ClassCrash, ClassDark, ClassGray, ClassTaskKill}

// Classify maps a schedule to its fault class by scanning its actions
// for the most severe kind present.
func Classify(s *chaos.Schedule) Class {
	class := ClassTaskKill
	for _, inj := range s.Injections {
		switch inj.Do.Kind {
		case faults.CrashNode, faults.CrashRack, faults.CrashTierNode:
			// A tier-service crash destroys stored shuffle segments; the
			// tier repairs them, but the schedule is still a crash regime.
			return ClassCrash
		case faults.StopNodeNetwork, faults.PartitionNode:
			class = ClassDark
		case faults.SlowNode, faults.DegradeNIC, faults.FlakyLink, faults.HotPartition:
			if class == ClassTaskKill {
				class = ClassGray
			}
		}
	}
	return class
}

// Options configures one tournament.
type Options struct {
	// Policies are the registry names to race (default: every registered
	// policy, sorted).
	Policies []string
	// FirstSeed and Seeds select the chaos schedules: consecutive seeds
	// starting at FirstSeed.
	FirstSeed int64
	Seeds     int
	// Budget bounds schedule hostility (default chaos.DefaultBudget).
	Budget chaos.Budget
	// Workers bounds the sweep's parallel engines (<= 0: one per CPU).
	// The league tables are byte-identical at any worker count.
	Workers int
}

// RunScore is one (policy, seed) outcome.
type RunScore struct {
	Policy    string
	Seed      int64
	Class     Class
	Completed bool
	Duration  time.Duration
	// Decisions and TotalRegret summarize the run's decision trace; the
	// counters attribute speculation behaviour.
	Decisions   int
	TotalRegret float64
	Backups     int64
	CapHits     int64
}

// Row is one policy's standings within a fault class.
type Row struct {
	Policy    string
	Wins      int // seeds where this policy had the fastest completed run
	Completed int
	Runs      int
	// MeanDuration averages completed runs only (0 if none completed).
	MeanDuration time.Duration
	Decisions    int
	// MeanRegret is total regret over total decisions (0 if none).
	MeanRegret float64
	Backups    int64
	CapHits    int64
}

// ClassTable is the league table for one fault class.
type ClassTable struct {
	Class Class
	Seeds []int64
	Rows  []Row
}

// Result is a finished tournament.
type Result struct {
	FirstSeed int64
	Seeds     int
	Policies  []string
	Budget    chaos.Budget // the budget schedules were generated under
	Scores    []RunScore   // seed-major, policy-minor deterministic order
	Tables    []ClassTable
}

// specFor is the chaos job (chaos.LocalMatrix.Spec) scheduled through a
// named policy with speculation on — the tournament is exactly the
// consumer the straggler-scan counters and decision traces were built
// for.
func specFor(seed int64, policy string) engine.JobSpec {
	spec := chaos.LocalMatrix.Spec(seed, engine.ModeYARN)
	spec.Policy = policy
	spec.Conf.SpeculativeExecution = true
	// Test-scale speculation thresholds: chaos jobs finish in minutes of
	// virtual time, so the stock 60s/30s gates would ablate the straggler
	// scan entirely and with it everything the tournament is ranking.
	spec.Conf.SpeculativeMinRuntime = 15 * time.Second
	spec.Conf.SpeculativeMinRemaining = 5 * time.Second
	return spec
}

// Run races the policy set over the seeded schedules and assembles the
// per-class league tables.
func Run(opts Options) (*Result, error) {
	if opts.Seeds < 1 {
		opts.Seeds = 1
	}
	if opts.Budget.MaxActions == 0 {
		opts.Budget = chaos.DefaultBudget()
	}
	policies := opts.Policies
	if len(policies) == 0 {
		policies = engine.PolicyNames()
	}
	policies = append([]string(nil), policies...)
	sort.Strings(policies)
	seen := make(map[string]bool, len(policies))
	for _, p := range policies {
		if seen[p] {
			return nil, fmt.Errorf("tournament: duplicate policy %q", p)
		}
		seen[p] = true
	}

	sh, cs := chaos.CheckShape()
	res := &Result{FirstSeed: opts.FirstSeed, Seeds: opts.Seeds, Policies: policies, Budget: opts.Budget}

	// Generate every seed's schedule up front (pure and cheap), then fan
	// the (seed, policy) matrix over the sweep scheduler: unit
	// si*len(policies)+pi writes score slot si*len(policies)+pi, which is
	// exactly the historical seed-major, policy-minor serial order.
	scheds := make([]chaos.Schedule, opts.Seeds)
	classes := make([]Class, opts.Seeds)
	for si := range scheds {
		seed := opts.FirstSeed + int64(si)
		scheds[si] = chaos.Generate(seed, opts.Budget, sh)
		classes[si] = Classify(&scheds[si])
	}
	scores := make([]RunScore, opts.Seeds*len(policies))
	err := sweep.Do(context.Background(), len(scores), opts.Workers, func(i int) error {
		si, pi := i/len(policies), i%len(policies)
		seed := opts.FirstSeed + int64(si)
		policy := policies[pi]
		run, err := engine.Run(specFor(seed, policy), cs, engine.WithPlan(scheds[si].Plan()))
		if err != nil {
			return fmt.Errorf("tournament: seed %d policy %s: %w", seed, policy, err)
		}
		score := RunScore{
			Policy:    policy,
			Seed:      seed,
			Class:     classes[si],
			Completed: run.Completed,
			Duration:  time.Duration(run.Duration),
			Decisions: len(run.Decisions),
			Backups:   run.Counters["speculation.backups"],
			CapHits:   run.Counters["speculation.cap_hit"],
		}
		for _, d := range run.Decisions {
			score.TotalRegret += d.Regret
		}
		scores[i] = score
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	res.Scores = scores
	res.Tables = buildTables(res.Scores, policies)
	return res, nil
}

// buildTables groups scores by class, awards each seed's win to the
// fastest completed run (ties to the lexicographically first policy —
// scores arrive policy-sorted, so first-fastest wins), and ranks rows.
func buildTables(scores []RunScore, policies []string) []ClassTable {
	type agg struct {
		rows  map[string]*Row
		seeds []int64
	}
	byClass := make(map[Class]*agg)
	forClass := func(c Class) *agg {
		a := byClass[c]
		if a == nil {
			a = &agg{rows: make(map[string]*Row)}
			for _, p := range policies {
				a.rows[p] = &Row{Policy: p}
			}
			byClass[c] = a
		}
		return a
	}

	bySeed := make(map[int64][]RunScore)
	var seeds []int64
	for _, s := range scores {
		if _, ok := bySeed[s.Seed]; !ok {
			seeds = append(seeds, s.Seed)
		}
		bySeed[s.Seed] = append(bySeed[s.Seed], s)
	}

	regret := make(map[Class]map[string]float64)
	for _, seed := range seeds {
		runs := bySeed[seed]
		class := runs[0].Class
		a := forClass(class)
		a.seeds = append(a.seeds, seed)
		winner := ""
		var best time.Duration
		for _, s := range runs {
			row := a.rows[s.Policy]
			row.Runs++
			row.Decisions += s.Decisions
			row.Backups += s.Backups
			row.CapHits += s.CapHits
			if regret[class] == nil {
				regret[class] = make(map[string]float64)
			}
			regret[class][s.Policy] += s.TotalRegret
			if s.Completed {
				row.Completed++
				row.MeanDuration += s.Duration // sum for now; divided below
				if winner == "" || s.Duration < best {
					winner, best = s.Policy, s.Duration
				}
			}
		}
		if winner != "" {
			a.rows[winner].Wins++
		}
	}

	var tables []ClassTable
	for _, class := range classOrder {
		a := byClass[class]
		if a == nil {
			continue
		}
		t := ClassTable{Class: class, Seeds: a.seeds}
		for _, p := range policies {
			row := *a.rows[p]
			if row.Completed > 0 {
				row.MeanDuration /= time.Duration(row.Completed)
			}
			if row.Decisions > 0 {
				row.MeanRegret = regret[class][p] / float64(row.Decisions)
			}
			t.Rows = append(t.Rows, row)
		}
		sort.SliceStable(t.Rows, func(i, j int) bool {
			a, b := t.Rows[i], t.Rows[j]
			if a.Wins != b.Wins {
				return a.Wins > b.Wins
			}
			if a.Completed != b.Completed {
				return a.Completed > b.Completed
			}
			if a.MeanDuration != b.MeanDuration {
				return a.MeanDuration < b.MeanDuration
			}
			return a.Policy < b.Policy
		})
		tables = append(tables, t)
	}
	return tables
}

// Standing is one policy's overall regret-weighted score across every
// fault class. Points reward outcomes (3 per seed won, 1 per other
// completed run); the score divides points by (1 + mean decision
// regret), so a policy that wins by burning speculative capacity on
// counterfactually useless backups ranks below one that wins cleanly.
type Standing struct {
	Policy     string
	Score      float64
	Points     int
	Wins       int
	Completed  int
	Runs       int
	MeanRegret float64
}

// Standings computes the overall regret-weighted standings from the
// per-seed scores. Ranking is by score (desc), then wins, then policy
// name — fully deterministic.
func (r *Result) Standings() []Standing {
	byPolicy := make(map[string]*Standing, len(r.Policies))
	for _, p := range r.Policies {
		byPolicy[p] = &Standing{Policy: p}
	}
	decisions := make(map[string]int, len(r.Policies))
	regret := make(map[string]float64, len(r.Policies))

	bySeed := make(map[int64][]RunScore)
	var seeds []int64
	for _, s := range r.Scores {
		if _, ok := bySeed[s.Seed]; !ok {
			seeds = append(seeds, s.Seed)
		}
		bySeed[s.Seed] = append(bySeed[s.Seed], s)
	}
	for _, seed := range seeds {
		winner := ""
		var best time.Duration
		for _, s := range bySeed[seed] {
			st := byPolicy[s.Policy]
			st.Runs++
			decisions[s.Policy] += s.Decisions
			regret[s.Policy] += s.TotalRegret
			if s.Completed {
				st.Completed++
				st.Points++ // finish point; upgraded below if it won
				if winner == "" || s.Duration < best {
					winner, best = s.Policy, s.Duration
				}
			}
		}
		if winner != "" {
			byPolicy[winner].Wins++
			byPolicy[winner].Points += 2 // 1 finish + 2 = 3 for the win
		}
	}
	out := make([]Standing, 0, len(r.Policies))
	for _, p := range r.Policies {
		st := *byPolicy[p]
		if d := decisions[p]; d > 0 {
			st.MeanRegret = regret[p] / float64(d)
		}
		st.Score = float64(st.Points) / (1 + st.MeanRegret)
		out = append(out, st)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Wins != b.Wins {
			return a.Wins > b.Wins
		}
		return a.Policy < b.Policy
	})
	return out
}

// FormatStandings renders the regret-weighted standings table,
// deterministic and golden-locked like Format.
func (r *Result) FormatStandings() string {
	var b strings.Builder
	fmt.Fprintf(&b, "standings: seeds %d..%d, regret-weighted (points = 3*win + 1*finish; score = points/(1+mean-regret))\n",
		r.FirstSeed, r.FirstSeed+int64(r.Seeds)-1)
	fmt.Fprintf(&b, "  %4s %-10s %8s %6s %4s %9s %11s\n",
		"rank", "policy", "score", "points", "wins", "completed", "mean-regret")
	for i, st := range r.Standings() {
		fmt.Fprintf(&b, "  %4d %-10s %8.3f %6d %4d %6d/%-2d %11.3f\n",
			i+1, st.Policy, st.Score, st.Points, st.Wins, st.Completed, st.Runs, st.MeanRegret)
	}
	return b.String()
}

// FormatSeedDetail renders the drill-down for one seed: the generated
// schedule followed by every policy's outcome, fastest first.
func (r *Result) FormatSeedDetail(seed int64) string {
	var runs []RunScore
	for _, s := range r.Scores {
		if s.Seed == seed {
			runs = append(runs, s)
		}
	}
	if len(runs) == 0 {
		return fmt.Sprintf("seed %d not in tournament range %d..%d\n",
			seed, r.FirstSeed, r.FirstSeed+int64(r.Seeds)-1)
	}
	budget := r.Budget
	if budget.MaxActions == 0 {
		budget = chaos.DefaultBudget()
	}
	sh, _ := chaos.CheckShape()
	sched := chaos.Generate(seed, budget, sh)

	var b strings.Builder
	fmt.Fprintf(&b, "seed %d detail (class %s)\n", seed, runs[0].Class)
	b.WriteString(sched.String())
	winner := ""
	var best time.Duration
	for _, s := range runs {
		if s.Completed && (winner == "" || s.Duration < best) {
			winner, best = s.Policy, s.Duration
		}
	}
	sort.SliceStable(runs, func(i, j int) bool {
		a, c := runs[i], runs[j]
		if a.Completed != c.Completed {
			return a.Completed
		}
		if a.Duration != c.Duration {
			return a.Duration < c.Duration
		}
		return a.Policy < c.Policy
	})
	fmt.Fprintf(&b, "  %-10s %-9s %9s %9s %11s %8s %8s\n",
		"policy", "result", "duration", "decisions", "regret", "backups", "cap-hits")
	for _, s := range runs {
		result := "completed"
		if !s.Completed {
			result = "FAILED"
		}
		mark := ""
		if s.Policy == winner {
			mark = "  <- winner"
		}
		fmt.Fprintf(&b, "  %-10s %-9s %8.1fs %9d %11.3f %8d %8d%s\n",
			s.Policy, result, s.Duration.Seconds(), s.Decisions, s.TotalRegret,
			s.Backups, s.CapHits, mark)
	}
	return b.String()
}

// Format renders the deterministic league table text.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tournament: seeds %d..%d, policies %s\n",
		r.FirstSeed, r.FirstSeed+int64(r.Seeds)-1, strings.Join(r.Policies, ","))
	for _, t := range r.Tables {
		seeds := make([]string, len(t.Seeds))
		for i, s := range t.Seeds {
			seeds[i] = fmt.Sprintf("%d", s)
		}
		fmt.Fprintf(&b, "\nclass %-9s (%d seed(s): %s)\n", t.Class, len(t.Seeds), strings.Join(seeds, " "))
		fmt.Fprintf(&b, "  %-10s %4s %9s %10s %9s %11s %8s %8s\n",
			"policy", "wins", "completed", "mean-dur", "decisions", "mean-regret", "backups", "cap-hits")
		for _, row := range t.Rows {
			fmt.Fprintf(&b, "  %-10s %4d %6d/%-2d %9.1fs %9d %11.3f %8d %8d\n",
				row.Policy, row.Wins, row.Completed, row.Runs,
				row.MeanDuration.Seconds(), row.Decisions, row.MeanRegret,
				row.Backups, row.CapHits)
		}
	}
	return b.String()
}
