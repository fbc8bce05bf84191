package fairshare

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"alm/internal/sim"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowThroughput(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("disk", 100) // 100 B/s
	var doneAt sim.Time = -1
	s.StartFlow("f", 1000, []*Port{p}, 0, func() { doneAt = e.Now() })
	e.RunAll()
	if doneAt < 0 {
		t.Fatal("flow never completed")
	}
	if !almostEqual(doneAt.Seconds(), 10, 0.01) {
		t.Fatalf("completion at %v, want ~10s", doneAt)
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	var d1, d2 sim.Time
	s.StartFlow("a", 500, []*Port{p}, 0, func() { d1 = e.Now() })
	s.StartFlow("b", 500, []*Port{p}, 0, func() { d2 = e.Now() })
	e.RunAll()
	// Both share 100 B/s -> 50 each -> 10 s each.
	if !almostEqual(d1.Seconds(), 10, 0.05) || !almostEqual(d2.Seconds(), 10, 0.05) {
		t.Fatalf("completions %v %v, want ~10s each", d1, d2)
	}
}

func TestShortFlowFreesBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	var dLong sim.Time
	s.StartFlow("long", 1000, []*Port{p}, 0, func() { dLong = e.Now() })
	s.StartFlow("short", 100, []*Port{p}, 0, nil)
	e.RunAll()
	// Short: 100 bytes at 50 B/s -> finishes at 2s having moved the long
	// flow 100 bytes. Long then runs at 100 B/s for the remaining 900
	// bytes -> total 2 + 9 = 11s.
	if !almostEqual(dLong.Seconds(), 11, 0.05) {
		t.Fatalf("long flow completed at %v, want ~11s", dLong)
	}
}

func TestMinOfTwoPorts(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	src := s.NewPort("src", 1000)
	dst := s.NewPort("dst", 100)
	var d sim.Time
	s.StartFlow("f", 1000, []*Port{src, dst}, 0, func() { d = e.Now() })
	e.RunAll()
	if !almostEqual(d.Seconds(), 10, 0.05) {
		t.Fatalf("completion at %v, want ~10s (limited by dst)", d)
	}
}

func TestMaxRateCap(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 1000)
	var d sim.Time
	s.StartFlow("f", 1000, []*Port{p}, 100, func() { d = e.Now() })
	e.RunAll()
	if !almostEqual(d.Seconds(), 10, 0.05) {
		t.Fatalf("completion at %v, want ~10s (capped)", d)
	}
}

func TestMaxMinFairness(t *testing.T) {
	// Classic example: flows A (port1 only), B (port1+port2), C (port2
	// only). port1 = 100, port2 = 30. Max-min: B and C share port2 at 15
	// each; A gets the rest of port1 = 85.
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p1 := s.NewPort("p1", 100)
	p2 := s.NewPort("p2", 30)
	fa := s.StartFlow("a", 1e9, []*Port{p1}, 0, nil)
	fb := s.StartFlow("b", 1e9, []*Port{p1, p2}, 0, nil)
	fc := s.StartFlow("c", 1e9, []*Port{p2}, 0, nil)
	if !almostEqual(fa.Rate(), 85, 0.01) {
		t.Fatalf("rate(a) = %v, want 85", fa.Rate())
	}
	if !almostEqual(fb.Rate(), 15, 0.01) {
		t.Fatalf("rate(b) = %v, want 15", fb.Rate())
	}
	if !almostEqual(fc.Rate(), 15, 0.01) {
		t.Fatalf("rate(c) = %v, want 15", fc.Rate())
	}
	fa.Cancel()
	fb.Cancel()
	fc.Cancel()
}

func TestCancelDoesNotCallDone(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	called := false
	f := s.StartFlow("f", 1000, []*Port{p}, 0, func() { called = true })
	e.Run(time.Second)
	f.Cancel()
	e.RunAll()
	if called {
		t.Fatal("done callback ran for a canceled flow")
	}
	if !f.Ended() || f.Remaining() != 0 || f.Rate() != 0 {
		t.Fatalf("canceled flow: ended=%v remaining=%v rate=%v", f.Ended(), f.Remaining(), f.Rate())
	}
}

func TestPortDownStallsFlow(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	done := false
	f := s.StartFlow("f", 1000, []*Port{p}, 0, func() { done = true })
	e.Run(5 * time.Second) // 500 bytes moved
	p.SetCapacity(0)
	e.Run(100 * time.Second)
	if done {
		t.Fatal("flow completed through a dead port")
	}
	if !almostEqual(f.Remaining(), 500, 1) {
		t.Fatalf("remaining = %v, want ~500", f.Remaining())
	}
	p.SetCapacity(100)
	e.RunAll()
	if !done {
		t.Fatal("flow did not resume after port recovered")
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	done := false
	f := s.StartFlow("f", 0, []*Port{p}, 0, func() { done = true })
	if !f.Ended() {
		t.Fatal("zero-byte flow should report ended synchronously")
	}
	e.RunAll()
	if !done {
		t.Fatal("zero-byte flow callback did not run")
	}
}

func TestCapacityIncreaseSpeedsCompletion(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 100)
	var d sim.Time
	s.StartFlow("f", 2000, []*Port{p}, 0, func() { d = e.Now() })
	e.Run(5 * time.Second) // 500 bytes
	p.SetCapacity(1000)
	e.RunAll()
	// Remaining 1500 at 1000 B/s = 1.5s -> total 6.5s.
	if !almostEqual(d.Seconds(), 6.5, 0.05) {
		t.Fatalf("completion at %v, want ~6.5s", d)
	}
}

func TestSetPriorityCapMidFlight(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSystem(e)
	p := s.NewPort("nic", 1000)
	var d sim.Time
	f := s.StartFlow("f", 2000, []*Port{p}, 0, func() { d = e.Now() })
	e.Run(time.Second) // 1000 bytes at full speed
	f.SetPriorityCap(100)
	e.RunAll()
	// Remaining 1000 at 100 B/s = 10s -> total 11s.
	if !almostEqual(d.Seconds(), 11, 0.1) {
		t.Fatalf("completion at %v, want ~11s", d)
	}
}

// Property: with N equal flows on one port, each gets capacity/N and all
// complete at bytes*N/capacity.
func TestQuickEqualSharing(t *testing.T) {
	f := func(nFlows uint8, kb uint8) bool {
		n := int(nFlows%8) + 1
		bytes := int64(kb)*100 + 100
		e := sim.NewEngine(3)
		s := NewSystem(e)
		p := s.NewPort("nic", 1000)
		var completions []sim.Time
		for i := 0; i < n; i++ {
			s.StartFlow("f", bytes, []*Port{p}, 0, func() {
				completions = append(completions, e.Now())
			})
		}
		e.RunAll()
		if len(completions) != n {
			return false
		}
		want := float64(bytes) * float64(n) / 1000
		for _, c := range completions {
			if !almostEqual(c.Seconds(), want, want*0.01+0.001) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: total allocated rate on any port never exceeds its capacity.
func TestQuickCapacityConservation(t *testing.T) {
	f := func(seed int64) bool {
		e := sim.NewEngine(seed)
		s := NewSystem(e)
		rng := rand.New(rand.NewSource(seed))
		ports := make([]*Port, 5)
		for i := range ports {
			ports[i] = s.NewPort("p", float64(rng.Intn(900)+100))
		}
		load := make(map[*Port][]Flow)
		for i := 0; i < 20; i++ {
			k := rng.Intn(3) + 1
			sel := make([]*Port, 0, k)
			for j := 0; j < k; j++ {
				sel = append(sel, ports[rng.Intn(len(ports))])
			}
			fl := s.StartFlow("f", int64(rng.Intn(10000)+1), sel, 0, nil)
			// A port listed twice carries the flow twice.
			for _, p := range sel {
				load[p] = append(load[p], fl)
			}
		}
		// Check the invariant at the initial allocation.
		for _, p := range ports {
			var sum float64
			for _, fl := range load[p] {
				sum += fl.Rate()
			}
			if sum > p.Capacity()*1.0001 {
				return false
			}
		}
		e.RunAll()
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// A completion past the last instant sim.Time can represent arms no
// timer: a clamped one would fire at that instant again and again with
// no time passing, until the event cap stopped the run. Each case starts
// its flow at `at`, outside an event (the eager pass) or inside one (the
// pass deferred to the handler's end).
func TestCompletionPastHorizonArmsNoTimer(t *testing.T) {
	const horizon = sim.Time(math.MaxInt64)
	for _, tc := range []struct {
		name    string
		at      sim.Time
		bytes   int64
		inEvent bool
	}{
		{"eager", 0, 1e12, false},
		{"deferred", 0, 1e12, true},
		{"late/eager", horizon - sim.Time(10*time.Second), 100, false},
		{"late/deferred", horizon - sim.Time(10*time.Second), 100, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			e.SetMaxEvents(50)
			s := NewSystem(e)
			p := s.NewPort("slow", 5) // 1e12 bytes need 2e11 s; 100 need 20 s
			var f Flow
			start := func() { f = s.StartFlow("f", tc.bytes, []*Port{p}, 0, nil) }
			if tc.inEvent {
				e.At(tc.at, start)
			} else {
				e.At(tc.at, func() {}) // move the clock there
				e.RunAll()
				start()
			}
			e.RunAll()
			if f.Ended() {
				t.Fatal("flow finished although its completion lies past the horizon")
			}
			if got := f.Remaining(); got != float64(tc.bytes) {
				t.Fatalf("remaining %v bytes, want %d", got, tc.bytes)
			}
			if e.QueueLen() != 0 {
				t.Fatalf("%d events still queued", e.QueueLen())
			}
		})
	}
}
