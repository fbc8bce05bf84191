package chaos

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"alm/internal/faults"
	"alm/internal/metrics"
)

func TestGenerateIsDeterministic(t *testing.T) {
	sh, _ := CheckShape()
	for seed := int64(1); seed <= 20; seed++ {
		a := Generate(seed, DefaultBudget(), sh)
		b := Generate(seed, DefaultBudget(), sh)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, a.String(), b.String())
		}
	}
	if reflect.DeepEqual(Generate(1, DefaultBudget(), sh), Generate(2, DefaultBudget(), sh)) {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

func TestGeneratedSchedulesRespectBudget(t *testing.T) {
	sh, _ := CheckShape()
	b := DefaultBudget()
	for seed := int64(0); seed < 200; seed++ {
		s := Generate(seed, b, sh)
		if len(s.Injections) < 1 || len(s.Injections) > b.MaxActions {
			t.Fatalf("seed %d: %d injections outside [1,%d]", seed, len(s.Injections), b.MaxActions)
		}
		if err := s.Plan().Validate(); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v\n%s", seed, err, s.String())
		}
		if n := s.CrashCount(); n > 1 {
			t.Fatalf("seed %d: %d data-destroying actions (max 1 is recoverable at replication 2)", seed, n)
		}
		for i := range s.Injections {
			inj := &s.Injections[i]
			if inj.When.Kind != faults.AtTime {
				if f := inj.When.Fraction; f < b.MinFraction || f > b.MaxFraction {
					t.Fatalf("seed %d: trigger fraction %v outside progress window [%v,%v]",
						seed, f, b.MinFraction, b.MaxFraction)
				}
			}
			if h := inj.Do.HealAfter; h > b.MaxHeal {
				t.Fatalf("seed %d: HealAfter %v exceeds budget %v", seed, h, b.MaxHeal)
			}
			if inj.Do.Selector == faults.NodeExplicit && inj.Do.Kind != faults.FailTask {
				if inj.Do.Node >= sh.Nodes || inj.Do.Node2 >= sh.Nodes {
					t.Fatalf("seed %d: node target out of shape: %+v", seed, inj.Do)
				}
			}
		}
	}
}

func TestPlanMaterialisesFreshCopies(t *testing.T) {
	sh, _ := CheckShape()
	s := Generate(3, DefaultBudget(), sh)
	p1 := s.Plan()
	for _, inj := range p1.Injections {
		inj.Done = true
		inj.Fired = 9
	}
	for i, inj := range s.Plan().Injections {
		if inj.Done || inj.Fired != 0 {
			t.Fatalf("injection %d shares state with a previous materialisation", i)
		}
	}
}

func TestScheduleClassifiers(t *testing.T) {
	partition := func(heal time.Duration) faults.Injection {
		return faults.Injection{
			When: faults.Trigger{Kind: faults.AtTime, Time: time.Minute},
			Do:   faults.Action{Kind: faults.PartitionNode, HealAfter: heal},
		}
	}
	crash := faults.Injection{
		When: faults.Trigger{Kind: faults.AtTime, Time: time.Minute},
		Do:   faults.Action{Kind: faults.CrashNode},
	}

	s := Schedule{Injections: []faults.Injection{partition(30 * time.Second)}}
	if !s.AllHealFast(time.Minute) || !s.SingleDark() {
		t.Fatal("fast-healing single partition misclassified")
	}
	if s.CrashCount() != 0 {
		t.Fatal("partition counted as data-destroying")
	}

	s = Schedule{Injections: []faults.Injection{partition(2 * time.Minute)}}
	if s.AllHealFast(time.Minute) {
		t.Fatal("slow heal classified as fast")
	}

	s = Schedule{Injections: []faults.Injection{crash}}
	if s.AllHealFast(time.Hour) {
		t.Fatal("crash classified as heal-fast")
	}
	if s.CrashCount() != 1 {
		t.Fatal("crash not counted")
	}

	s = Schedule{Injections: []faults.Injection{partition(30 * time.Second), crash}}
	if s.SingleDark() {
		t.Fatal("two dark actions classified as single-dark")
	}
}

// TestTierFaultsGated pins the compatibility contract: with TierFaults
// off the generator must produce byte-identical schedules whether or not
// the shape advertises a tier, and tier faults appear only behind the
// gate — always in range, always healing.
func TestTierFaultsGated(t *testing.T) {
	sh, _ := CheckShape()
	shTier := sh
	shTier.TierNodes = RemoteMatrix.TierNodes
	b := DefaultBudget()
	bTier := b
	bTier.TierFaults = true

	sawTier := false
	for seed := int64(0); seed < 100; seed++ {
		legacy := Generate(seed, b, sh)
		if !reflect.DeepEqual(legacy, Generate(seed, b, shTier)) {
			t.Fatalf("seed %d: schedule changed by shape.TierNodes alone (gate leak)", seed)
		}
		if !reflect.DeepEqual(legacy, Generate(seed, bTier, sh)) {
			t.Fatalf("seed %d: schedule changed by Budget.TierFaults without a tier", seed)
		}
		if legacy.HasTierCrash() {
			t.Fatalf("seed %d: tier crash generated without the gate", seed)
		}

		s := Generate(seed, bTier, shTier)
		if err := s.Plan().Validate(); err != nil {
			t.Fatalf("seed %d: tier-enabled plan invalid: %v\n%s", seed, err, s.String())
		}
		tiers := 0
		for i := range s.Injections {
			switch a := s.Injections[i].Do; a.Kind {
			case faults.CrashTierNode:
				tiers++
				sawTier = true
				if a.Node >= shTier.TierNodes {
					t.Fatalf("seed %d: tier ordinal %d out of range", seed, a.Node)
				}
				if a.HealAfter <= 0 {
					t.Fatalf("seed %d: tier crash without heal (service must restart)", seed)
				}
			case faults.HotPartition:
				tiers++
				sawTier = true
				if a.TaskIdx >= shTier.Reduces {
					t.Fatalf("seed %d: hot partition %d out of range", seed, a.TaskIdx)
				}
			}
		}
		if tiers > 2 {
			t.Fatalf("seed %d: %d tier faults exceed the per-schedule cap of 2", seed, tiers)
		}
	}
	if !sawTier {
		t.Fatal("100 tier-enabled seeds produced no tier fault at all")
	}
}

// The heal-fast no-lost-nodes invariant is the canary for the HealAfter
// machinery: running a quick seed batch end to end proves the checker
// itself is wired (an engine that dropped the heal schedule fails here
// with no-lost-nodes violations — verified by mutation).
func TestCheckSeedsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 full simulations")
	}
	if vs := CheckSeeds(LocalMatrix, 11, 2, DefaultBudget(), 2, nil, nil); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("%s", v)
		}
	}
}

// TestCheckSeedRemoteSmoke runs the remote-shuffle invariant matrix for
// one seed end to end: termination, output identity, determinism, the
// tier-recovery obligation ledger, and the no-map-recompute claim.
func TestCheckSeedRemoteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 6 full simulations")
	}
	if vs := CheckSeed(RemoteMatrix, 11, DefaultBudget(), nil); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("%s\n  repro: %s", v, v.Reproducer())
		}
	}
}

// TestCheckSeedsWorkerParity requires each matrix's sweep violations and
// its metrics registry to come out byte-identical whether the seeds run
// serially or on 8 workers: seeds run registry-free on the workers and
// their increments are replayed in seed order at delivery.
func TestCheckSeedsWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	for _, tc := range []struct {
		name string
		m    Matrix
	}{{"local", LocalMatrix}, {"remote", RemoteMatrix}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) ([]Violation, []byte) {
				reg := metrics.NewRegistry()
				var reported []int64
				vs := CheckSeeds(tc.m, 11, 3, DefaultBudget(), workers, reg, func(seed int64, _ []Violation) {
					reported = append(reported, seed)
				})
				for i, s := range reported {
					if want := int64(11 + i); s != want {
						t.Errorf("workers=%d: report %d was seed %d, want %d", workers, i, s, want)
					}
				}
				return vs, reg.Snapshot().Prometheus()
			}
			vs1, prom1 := run(1)
			vs8, prom8 := run(8)
			if len(vs1) != len(vs8) {
				t.Fatalf("violations differ: %d serial vs %d parallel", len(vs1), len(vs8))
			}
			for i := range vs1 {
				if vs1[i] != vs8[i] {
					t.Errorf("violation %d differs:\nserial:   %+v\nparallel: %+v", i, vs1[i], vs8[i])
				}
			}
			if !bytes.Equal(prom1, prom8) {
				t.Errorf("metrics snapshots differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", prom1, prom8)
			}
		})
	}
}
