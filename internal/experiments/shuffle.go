package experiments

import (
	"fmt"

	"alm/internal/engine"
	"alm/internal/faults"
)

// shuffleConfigs is the four-way showdown matrix: the paper's stock and
// ALM stacks, each with and without the remote shuffle tier. Labels are
// table row labels; the order is fixed so rendered output is stable.
var shuffleConfigs = []struct {
	Label  string
	Mode   engine.Mode
	Remote bool
}{
	{"stock", engine.ModeYARN, false},
	{"alm", engine.ModeALM, false},
	{"remote-shuffle", engine.ModeYARN, true},
	{"alm+remote-shuffle", engine.ModeALM, true},
}

// Shuffle runs the remote-shuffle amplification showdown: every config
// executes failure-free, under a network-stop of a MOF-hosting node, and
// under a crash of a MOF-hosting node, all at 55% job progress. The
// amplification ratio is faulted over failure-free duration — the
// paper's failure-amplification metric — so 1.0 means the fault cost
// nothing beyond the work already done. Tier network gigabytes count the
// push, re-replication and re-push traffic the tier added in the crash
// scenario.
func Shuffle(opt Options) (*Table, error) {
	opt = opt.withWorkloads()
	var cases []runCase
	for _, cfg := range shuffleConfigs {
		spec := terasort(cfg.Mode, opt)
		spec.Shuffle.Remote = cfg.Remote
		cases = append(cases,
			runCase{key: cfg.Label + "/free", spec: spec},
			runCase{key: cfg.Label + "/stop", spec: spec, plan: faults.StopMOFNodeAtJobProgress(0.55)},
			runCase{key: cfg.Label + "/crash", spec: spec, plan: faults.CrashMOFNodeAtJobProgress(0.55)},
		)
	}
	results, err := runAll(cases, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "shuffle",
		Title:   "Failure amplification with a resilient remote-shuffle tier (Terasort, MOF-node faults @55%)",
		Columns: []string{"job_s", "stop_amp", "stop_addl_fail", "crash_amp", "crash_addl_fail", "tier_net_gb"},
	}
	for _, cfg := range shuffleConfigs {
		free := results[cfg.Label+"/free"]
		stop := results[cfg.Label+"/stop"]
		crash := results[cfg.Label+"/crash"]
		for _, r := range []engine.Result{free, stop, crash} {
			if !r.Completed {
				return nil, fmt.Errorf("config %s did not complete: %s", cfg.Label, r.FailReason)
			}
		}
		freeS := secs(free.Duration)
		amp := func(r engine.Result) float64 {
			if freeS == 0 {
				return 0
			}
			return secs(r.Duration) / freeS
		}
		tierNet := crash.Counters["tier.push.bytes"] +
			crash.Counters["tier.replication.bytes"] +
			crash.Counters["tier.repush.bytes"]
		t.Rows = append(t.Rows, Row{
			Label: cfg.Label,
			Values: []float64{
				freeS,
				amp(stop), float64(stop.AdditionalReduceFailures),
				amp(crash), float64(crash.AdditionalReduceFailures),
				float64(tierNet) / float64(gb),
			},
		})
	}
	t.Notes = append(t.Notes,
		"amplification = faulted duration / failure-free duration; 1.0 is a free recovery",
		"the tier decouples delivered MOFs from map-node fate: map-node loss costs the remote configs no recomputation",
		"tier_net_gb is the extra network the tier spent in the crash scenario (push + re-replication + re-push)")
	return t, nil
}
