package mr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.IOSortFactor = 1 },
		func(c *Config) { c.ParallelFetches = 0 },
		func(c *Config) { c.MaxTaskAttempts = 0 },
		func(c *Config) { c.ProgressQuantum = 0 },
		func(c *Config) { c.ProgressQuantum = 0.9 },
		func(c *Config) { c.DFSReplication = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestHashPartitionerRange(t *testing.T) {
	for _, key := range []string{"", "a", "hello", "世界", "key-42"} {
		for _, n := range []int{1, 2, 7, 20} {
			p := HashPartitioner(key, n)
			if p < 0 || p >= n {
				t.Fatalf("partition(%q, %d) = %d out of range", key, n, p)
			}
		}
	}
}

func TestHashPartitionerDeterministic(t *testing.T) {
	if HashPartitioner("abc", 20) != HashPartitioner("abc", 20) {
		t.Fatal("partitioner not deterministic")
	}
}

func TestDefaultComparator(t *testing.T) {
	if DefaultComparator("a", "b") >= 0 {
		t.Fatal("a should sort before b")
	}
	if DefaultComparator("b", "a") <= 0 {
		t.Fatal("b should sort after a")
	}
	if DefaultComparator("x", "x") != 0 {
		t.Fatal("x should equal x")
	}
}

func TestReplicationLevelString(t *testing.T) {
	for lvl, want := range map[ReplicationLevel]string{
		ReplicateNode:    "node",
		ReplicateRack:    "rack",
		ReplicateCluster: "cluster",
	} {
		if lvl.String() != want {
			t.Fatalf("String(%d) = %q, want %q", int(lvl), lvl.String(), want)
		}
	}
}

func TestCountersMerge(t *testing.T) {
	a := Counters{"x": 1, "y": 2}
	b := Counters{"y": 3, "z": 4}
	a.Merge(b)
	if a["x"] != 1 || a["y"] != 5 || a["z"] != 4 {
		t.Fatalf("merged counters = %v", a)
	}
	a.Add("x", 9)
	if a["x"] != 10 {
		t.Fatalf("Add failed: %v", a)
	}
}

// Property: the hash partitioner spreads random keys over all partitions
// reasonably evenly (no partition starved below a third of fair share on
// a large sample).
func TestQuickPartitionerSpread(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 16
		counts := make([]int, n)
		for i := 0; i < 4000; i++ {
			key := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			counts[HashPartitioner(key, n)]++
		}
		for _, c := range counts {
			if c < 4000/n/3 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
