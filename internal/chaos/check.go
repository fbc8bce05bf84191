package chaos

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"alm/internal/engine"
	"alm/internal/faults"
	"alm/internal/metrics"
	"alm/internal/mr"
	"alm/internal/sweep"
	"alm/internal/trace"
	"alm/internal/workloads"
)

// Violation is one invariant failure for one (seed, mode) pair.
type Violation struct {
	Seed      int64
	Mode      engine.Mode
	Invariant string
	Detail    string
	// Remote marks a violation found under RemoteMatrix; the reproducer
	// needs the -shuffle=remote flag.
	Remote bool
}

func (v Violation) String() string {
	mode := v.Mode.String()
	if v.Remote {
		mode += "+remote"
	}
	return fmt.Sprintf("seed=%d mode=%s invariant=%s: %s", v.Seed, mode, v.Invariant, v.Detail)
}

// Reproducer returns the command line that replays exactly this seed.
func (v Violation) Reproducer() string {
	if v.Remote {
		return fmt.Sprintf("go run ./cmd/almrun -chaos -shuffle=remote -seed %d -seeds 1", v.Seed)
	}
	return fmt.Sprintf("go run ./cmd/almrun -chaos -seed %d -seeds 1", v.Seed)
}

// Modes is the full mode matrix every schedule is checked under.
var Modes = []engine.Mode{engine.ModeYARN, engine.ModeALG, engine.ModeSFM, engine.ModeALM}

// Matrix is one chaos check matrix: the modes every schedule runs under
// and the shuffle path its jobs take. TierNodes > 0 selects the remote
// shuffle tier of that size: the jobs push their MOFs to it, the
// schedules also draw tier faults (Budget.TierFaults), the tier's own
// invariants are checked, and violations are tagged Remote.
type Matrix struct {
	Modes     []engine.Mode
	TierNodes int
}

var (
	// LocalMatrix checks every mode with node-local shuffle.
	LocalMatrix = Matrix{Modes: Modes}
	// RemoteMatrix checks stock retry against the full ALM stack with
	// MOFs pushed to a 3-node tier (the engine's ShuffleOptions default,
	// so generated tier ordinals stay in range).
	RemoteMatrix = Matrix{Modes: []engine.Mode{engine.ModeYARN, engine.ModeALM}, TierNodes: 3}
)

func (m Matrix) remote() bool { return m.TierNodes > 0 }

// CheckShape is the fixed small job/cluster geometry chaos runs use:
// the paper's 2×10 testbed, 8 map splits (1 GiB at the default 128 MB
// block size), 4 reducers.
func CheckShape() (Shape, engine.ClusterSpec) {
	cs := engine.DefaultClusterSpec()
	cs.MaxVirtualTime = 2 * time.Hour
	return Shape{
		Nodes:   cs.Racks * cs.NodesPerRack,
		Racks:   cs.Racks,
		Maps:    8,
		Reduces: 4,
	}, cs
}

// schedule generates seed's schedule for the matrix; a remote matrix
// also draws tier faults for its tier.
func (m Matrix) schedule(seed int64, b Budget) Schedule {
	sh, _ := CheckShape()
	sh.TierNodes = m.TierNodes
	b.TierFaults = b.TierFaults || m.remote()
	return Generate(seed, b, sh)
}

// Spec builds the job spec for one (seed, mode) run. The workload
// rotates with the seed so all three benchmarks see chaos.
// MaxTaskAttempts is raised from the stock 4: a compound schedule can
// legitimately charge a task several attempt failures (an injected kill
// plus strandings on partitioned nodes) without anything being wrong,
// and the invariants under test are about amplification and recovery,
// not the attempt cap.
func (m Matrix) Spec(seed int64, mode engine.Mode) engine.JobSpec {
	sh, _ := CheckShape()
	wls := []*workloads.Workload{workloads.Terasort(), workloads.Wordcount(), workloads.Secondarysort()}
	conf := mr.DefaultConfig()
	conf.MaxTaskAttempts = 8
	spec := engine.JobSpec{
		Workload:   wls[int(((seed%3)+3)%3)],
		InputBytes: int64(sh.Maps) * conf.BlockSizeBytes,
		NumReduces: sh.Reduces,
		Conf:       conf,
		Mode:       mode,
		Seed:       seed,
	}
	spec.Shuffle.Remote = m.remote()
	spec.Shuffle.TierNodes = m.TierNodes
	return spec
}

// runOne executes one job, converting an engine invariant panic (armed
// via engine.EnableInvariantChecks) into an error instead of killing the
// whole sweep. conservationErr carries the post-run cluster accounting
// check.
func runOne(spec engine.JobSpec, cs engine.ClusterSpec, plan *faults.Plan) (res engine.Result, tierPending int, conservationErr, runErr error) {
	defer func() {
		if r := recover(); r != nil {
			runErr = fmt.Errorf("engine panic: %v", r)
		}
	}()
	var h engine.Handles
	res, err := engine.Run(spec, cs, engine.WithPlan(plan), engine.WithHandles(&h))
	if err != nil {
		return res, 0, nil, err
	}
	if h.Job != nil {
		if tier := h.Job.Tier(); tier != nil {
			tierPending = tier.PendingRecovery()
		}
	}
	return res, tierPending, h.Cluster.CheckConservation(), nil
}

func sameOutput(a, b []mr.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckSeed generates the schedule for one seed and verifies every
// invariant of m (DESIGN.md §11 lists each one's matrix scope) under
// every mode of m: three runs per mode (failure-free baseline, chaos,
// chaos again for determinism). It returns all violations found (nil
// means the seed is clean). reg, when non-nil, accumulates sweep
// metrics (runs per mode, violations per invariant).
func CheckSeed(m Matrix, seed int64, budget Budget, reg *metrics.Registry) []Violation {
	engine.EnableInvariantChecks()
	vs := m.check(seed, budget)
	m.applySeedMetrics(reg, vs)
	return vs
}

// check is CheckSeed's pure core: no registry writes, no global toggles
// — safe to fan out across sweep workers. Metrics are derived from its
// return value afterwards (applySeedMetrics), in seed order, so a
// parallel sweep's registry snapshot is byte-identical to serial.
func (m Matrix) check(seed int64, budget Budget) []Violation {
	_, cs := CheckShape()
	sched := m.schedule(seed, budget)
	var vs []Violation
	add := func(mode engine.Mode, invariant, detail string) {
		vs = append(vs, Violation{Seed: seed, Mode: mode, Invariant: invariant, Detail: detail, Remote: m.remote()})
	}

	for _, mode := range m.Modes {
		spec := m.Spec(seed, mode)

		base, _, baseCons, err := runOne(spec, cs, nil)
		if err != nil {
			add(mode, "baseline-run", err.Error())
			continue
		}
		if !base.Completed {
			add(mode, "baseline-termination", base.FailReason)
			continue
		}
		if baseCons != nil {
			add(mode, "conservation", "baseline: "+baseCons.Error())
		}

		res, pending, cons, err := runOne(spec, cs, sched.Plan())
		if err != nil {
			add(mode, "chaos-run", err.Error())
			continue
		}
		if !res.Completed {
			add(mode, "termination", fmt.Sprintf("job did not complete: %s", res.FailReason))
			continue
		}
		if cons != nil {
			add(mode, "conservation", cons.Error())
		}
		if !sameOutput(res.Output, base.Output) {
			add(mode, "output-identity", fmt.Sprintf(
				"recovered output differs from failure-free run (%d vs %d records)",
				len(res.Output), len(base.Output)))
		}
		if m.remote() {
			if pending != 0 {
				add(mode, "tier-recovery", fmt.Sprintf(
					"%d tier segments still owed at job end: a killed tier node's "+
						"storage was neither re-replicated nor re-pushed", pending))
			}
			if sched.SingleDark() && !sched.HasTierCrash() {
				if n := res.Trace.Count(trace.KindMapRescheduled); n != 0 {
					add(mode, "no-map-recompute", fmt.Sprintf(
						"%d completed maps recomputed although their MOFs were safe in the tier", n))
				}
			}
		}
		// Local schedules draw no tier faults, so HasTierCrash is false there.
		if mode.SFMEnabled() && sched.SingleDark() && !sched.HasTierCrash() && res.AdditionalReduceFailures != 0 {
			add(mode, "no-amplification", fmt.Sprintf(
				"%d healthy reducers infected under a single-failure schedule",
				res.AdditionalReduceFailures))
		}
		if !m.remote() && sched.AllHealFast(healFastLimit(spec.Conf)) && sched.CrashCount() == 0 {
			if n := res.Trace.Count(trace.KindNodeDetected); n != 0 {
				add(mode, "no-lost-nodes", fmt.Sprintf(
					"%d nodes declared lost although every fault heals before the liveness timer", n))
			}
		}

		res2, _, _, err := runOne(spec, cs, sched.Plan())
		if err != nil {
			add(mode, "determinism", "repeat run failed: "+err.Error())
			continue
		}
		switch {
		case res2.Duration != res.Duration:
			add(mode, "determinism", fmt.Sprintf("durations differ: %v vs %v", res.Duration, res2.Duration))
		case res2.Events.Processed != res.Events.Processed:
			add(mode, "determinism", fmt.Sprintf("event counts differ: %d vs %d", res.Events.Processed, res2.Events.Processed))
		case !sameOutput(res2.Output, res.Output):
			add(mode, "determinism", "outputs differ between identical runs")
		case res2.FetchRetries != res.FetchRetries:
			add(mode, "determinism", fmt.Sprintf("fetch retries differ: %d vs %d", res.FetchRetries, res2.FetchRetries))
		}
	}
	return vs
}

// healFastLimit is the largest HealAfter that provably beats the
// liveness timer: the node must heal and get a heartbeat in before
// NodeExpiry elapses since its last pre-fault heartbeat (worst case one
// full heartbeat interval before the fault, plus one after the heal).
func healFastLimit(conf mr.Config) time.Duration {
	return conf.NodeExpiry - 3*conf.HeartbeatInterval
}

// applySeedMetrics replays one seed's sweep counters into reg. Counter
// finals are sums and snapshots are key-sorted, so applying the
// increments here — in seed order, on the sweep's delivery goroutine —
// produces the same registry state as the historical serial loop that
// interleaved them with the runs. reg may be nil (all handles are
// nil-safe no-ops).
func (m Matrix) applySeedMetrics(reg *metrics.Registry, bad []Violation) {
	for _, mode := range m.Modes {
		name := mode.String()
		if m.remote() {
			name += "+remote"
		}
		reg.Counter("alm_chaos_runs_total", "mode", name).Add(3)
	}
	for _, v := range bad {
		reg.Counter("alm_chaos_violations_total", "invariant", v.Invariant).Inc()
	}
	reg.Counter("alm_chaos_seeds_total").Inc()
}

// CheckSeeds sweeps m over n consecutive seeds starting at first across
// workers parallel engines (<= 0: one per CPU), invoking report after
// each seed in seed order (for progress output; may be nil). It returns
// all violations, in seed order. reg, when non-nil, accumulates sweep
// metrics; its final snapshot does not depend on the worker count.
//
// The invariant toggle is flipped once, before any worker spawns, so
// engine goroutines only ever read it; violations land in per-seed
// indexed slots and both metrics application and progress reporting
// happen at ordered delivery time.
func CheckSeeds(m Matrix, first int64, n int, budget Budget, workers int, reg *metrics.Registry, report func(seed int64, bad []Violation)) []Violation {
	engine.EnableInvariantChecks()
	if n < 0 {
		n = 0
	}
	per := make([][]Violation, n)
	sweep.Do(context.Background(), n, workers, func(i int) error {
		per[i] = m.check(first+int64(i), budget)
		return nil
	}, func(i int, err error) {
		seed := first + int64(i)
		if err != nil {
			// A panic that escaped runOne's recovery (harness bug, not an
			// engine fault) — surface it as a violation instead of dying.
			per[i] = append(per[i], Violation{
				Seed: seed, Mode: m.Modes[0], Invariant: "sweep-harness",
				Detail: err.Error(), Remote: m.remote(),
			})
		}
		m.applySeedMetrics(reg, per[i])
		if report != nil {
			report(seed, per[i])
		}
	})
	var all []Violation
	for _, vs := range per {
		all = append(all, vs...)
	}
	return all
}

// Sweep runs n consecutive seeds starting at first (at least one) over
// LocalMatrix — or, with remote, RemoteMatrix — across workers parallel
// engines, and writes the sweep transcript to w: a header, each
// schedule when verbose, one status line per seed in seed order, and a
// summary listing every violation with a minimal reproducer command
// line. The transcript is byte-identical at any worker count. It returns
// the violations; reg, when non-nil, accumulates the sweep metrics.
func Sweep(w io.Writer, first int64, n, workers int, remote, verbose bool, reg *metrics.Registry) []Violation {
	if n < 1 {
		n = 1
	}
	m, tier := LocalMatrix, ""
	if remote {
		m, tier = RemoteMatrix, " with the remote shuffle tier"
	}
	names := make([]string, len(m.Modes))
	for i, mode := range m.Modes {
		names[i] = mode.String()
	}
	fmt.Fprintf(w, "chaos: sweeping %d seed(s) from %d under modes %s%s\n", n, first, strings.Join(names, "|"), tier)
	budget := DefaultBudget()
	if verbose {
		for seed := first; seed < first+int64(n); seed++ {
			sched := m.schedule(seed, budget)
			io.WriteString(w, sched.String())
		}
	}
	checked := 0
	all := CheckSeeds(m, first, n, budget, workers, reg, func(seed int64, bad []Violation) {
		checked++
		status := "ok"
		if len(bad) > 0 {
			status = fmt.Sprintf("%d VIOLATION(S)", len(bad))
		}
		fmt.Fprintf(w, "  seed %-6d [%d/%d] %s\n", seed, checked, n, status)
	})
	if len(all) == 0 {
		fmt.Fprintf(w, "chaos: all invariants held over %d seed(s) x %d modes\n", n, len(m.Modes))
		return nil
	}
	fmt.Fprintf(w, "\nchaos: %d invariant violation(s):\n", len(all))
	for _, v := range all {
		fmt.Fprintf(w, "  %s\n      reproduce: %s\n", v, v.Reproducer())
	}
	return all
}
