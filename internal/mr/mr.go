// Package mr defines the data-plane types of the MapReduce runtime:
// records, comparators, partitioners, user map/reduce functions, and the
// job configuration (mirroring the paper's Table I parameters).
//
// Dual accounting. The simulator charges virtual time against *logical*
// sizes (paper-scale gigabytes), while the record pipeline itself carries
// a bounded deterministic *sample* of real records so that sorting,
// merging, grouping, reduction, logging and recovery are genuinely
// executed and verifiable. Every dataset-bearing structure therefore
// tracks both logical bytes/records and the real sampled records.
package mr

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"
)

// Record is one key/value pair.
type Record struct {
	Key   string
	Value string
}

// KeyComparator orders keys. It returns a negative number, zero, or a
// positive number when a sorts before, equal to, or after b.
type KeyComparator func(a, b string) int

// DefaultComparator is plain lexicographic ordering.
func DefaultComparator(a, b string) int { return strings.Compare(a, b) }

// GroupComparator decides which consecutive keys form one reduce group.
// Secondary sort uses a grouper coarser than the sort comparator.
type GroupComparator func(a, b string) bool

// DefaultGrouper groups exactly equal keys.
func DefaultGrouper(a, b string) bool { return a == b }

// Partitioner assigns a key to one of numReduces partitions.
type Partitioner func(key string, numReduces int) int

// HashPartitioner is the default FNV-1a based partitioner.
func HashPartitioner(key string, numReduces int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(numReduces))
}

// MapFunc transforms one input record into zero or more intermediate
// records via emit.
type MapFunc func(key, value string, emit func(k, v string))

// ReduceFunc folds all values of one group into zero or more output
// records via emit. The key passed is the first key of the group.
type ReduceFunc func(key string, values []string, emit func(k, v string))

// CostModel captures the CPU-side processing rates of the user code and
// framework, in logical bytes per second per task. Bulk I/O and network
// costs come from the simdisk/simnet models; these rates cover the
// compute that overlaps them.
type CostModel struct {
	MapCPURate    float64 // map function + sort/spill CPU
	ReduceCPURate float64 // reduce function + deserialization CPU
	MergeCPURate  float64 // merge-pass CPU (comparisons + (de)serialization)
	// ShuffleCPURate caps one reducer's aggregate ingest (HTTP fetch,
	// checksum, buffer management) across its parallel fetchers.
	ShuffleCPURate float64
	// DeserializeShare is the fraction of ReduceCPURate attributable to
	// deserializing intermediate data; ALG log replay skips it for
	// already-reduced data (paper Fig. 15 Terasort case).
	DeserializeShare float64
}

// DefaultCostModel returns per-task processing rates calibrated to real
// Hadoop-on-Xeon behaviour: a JVM map task sustains ~20 MB/s end to end
// (record parsing, map function, sort, serialization), a reduce task
// ~30 MB/s, and merge passes ~150 MB/s. These framework-level rates — not
// raw hardware bandwidth — are what make paper-scale jobs run for
// paper-scale minutes against the 70-second control-plane timeouts.
func DefaultCostModel() CostModel {
	return CostModel{
		MapCPURate:       20e6,
		ReduceCPURate:    30e6,
		MergeCPURate:     150e6,
		ShuffleCPURate:   60e6,
		DeserializeShare: 0.35,
	}
}

// ReplicationLevel is ALG's placement scope for reduce-stage logs and
// flushed reduce output (paper Fig. 13).
type ReplicationLevel int

// Replication levels, narrowest to widest.
const (
	ReplicateNode    ReplicationLevel = iota // local replica only
	ReplicateRack                            // local + same-rack replica (ALG default)
	ReplicateCluster                         // local + remote-rack replica
)

func (r ReplicationLevel) String() string {
	switch r {
	case ReplicateNode:
		return "node"
	case ReplicateRack:
		return "rack"
	case ReplicateCluster:
		return "cluster"
	default:
		return fmt.Sprintf("ReplicationLevel(%d)", int(r))
	}
}

// Config is the job configuration. Field defaults follow the paper's
// Table I and stock YARN 2.2 behaviour.
type Config struct {
	// Resources (Table I).
	MapMemoryMB    int // mapreduce.map.java.opts
	ReduceMemoryMB int // mapreduce.reduce.java.opts
	IOSortFactor   int // mapreduce.task.io.sort.factor
	DFSReplication int // dfs.replication
	BlockSizeBytes int64

	// Shuffle/merge behaviour.
	ParallelFetches     int     // concurrent fetch threads per reducer
	ShuffleMemoryShare  float64 // fraction of reduce heap usable for shuffle buffers
	InMemMergeThreshold float64 // trigger in-memory merge at this fill fraction

	// Failure handling (stock YARN semantics).
	TaskTimeout          time.Duration // no-progress timeout before the AM kills a task
	NodeExpiry           time.Duration // missed-heartbeat window before a node is declared lost
	HeartbeatInterval    time.Duration
	FetchConnectTimeout  time.Duration // per fetch attempt
	FetchRetries         int           // consecutive host failures before a reducer may strike out
	FetchRetryBackoff    time.Duration
	MapRerunFetchReports int // AM re-runs a map after this many fetch-failure reports
	// StallKillWindow: a reducer that has exhausted FetchRetries on a host
	// AND has had no successful fetch for this long declares itself failed
	// ("too many fetch failures") — the stock-YARN behaviour behind both
	// failure amplifications.
	StallKillWindow time.Duration
	MaxTaskAttempts int
	MaxMapsPerFetch int // map outputs fetched per host connection
	// TaskLaunchOverhead is the fixed cost of starting a task attempt
	// (container localization + JVM startup). The paper's Fig. 3 shows
	// ~11 s between failure detection and the recovery task's launch.
	TaskLaunchOverhead time.Duration
	// SlowStartFraction of maps must complete before reduces launch.
	SlowStartFraction float64

	// SpeculativeExecution enables stock straggler speculation (LATE-
	// style backup attempts). Off by default: the paper's scenarios
	// isolate failure handling, and its reference [8] shows stock
	// speculation is ineffective under node failures.
	SpeculativeExecution bool
	// SpeculativeMinRuntime is how long an attempt must run before it can
	// be judged a straggler.
	SpeculativeMinRuntime time.Duration
	// SpeculativeSlowRatio: an attempt whose progress rate is below this
	// fraction of the median peer rate gets a backup.
	SpeculativeSlowRatio float64
	// SpeculativeMinRemaining: an attempt whose estimated remaining time
	// is below this is never worth a backup (the backup's launch overhead
	// would exceed the saving). Hadoop hardcodes ~30s; lifted into the
	// config so policy tournaments can tune it.
	SpeculativeMinRemaining time.Duration

	// CPU-side processing rates. The data-plane functions (comparator,
	// grouper, partitioner) belong to the workload, not the config.
	Costs CostModel

	// Progress/bookkeeping granularity: tasks advance in work quanta of
	// roughly this fraction of their total work.
	ProgressQuantum float64
}

// DefaultConfig returns the paper's Table I configuration with stock
// YARN failure-handling constants calibrated to the paper's observations
// (~70 s crash detection, ~50 s of fetch failures before a reducer is
// declared failed).
func DefaultConfig() Config {
	return Config{
		MapMemoryMB:    1536,
		ReduceMemoryMB: 4096,
		IOSortFactor:   100,
		DFSReplication: 2,
		BlockSizeBytes: 128 << 20,

		ParallelFetches:     5,
		ShuffleMemoryShare:  0.70,
		InMemMergeThreshold: 0.66,

		TaskTimeout:             70 * time.Second,
		NodeExpiry:              70 * time.Second,
		HeartbeatInterval:       3 * time.Second,
		FetchConnectTimeout:     10 * time.Second,
		FetchRetries:            4,
		FetchRetryBackoff:       3 * time.Second,
		MapRerunFetchReports:    3,
		StallKillWindow:         30 * time.Second,
		MaxTaskAttempts:         4,
		MaxMapsPerFetch:         20,
		TaskLaunchOverhead:      10 * time.Second,
		SpeculativeExecution:    false,
		SpeculativeMinRuntime:   60 * time.Second,
		SpeculativeSlowRatio:    0.3,
		SpeculativeMinRemaining: 30 * time.Second,
		SlowStartFraction:       0.05,

		Costs: DefaultCostModel(),

		ProgressQuantum: 0.01,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.IOSortFactor < 2:
		return fmt.Errorf("mr: IOSortFactor must be >= 2, got %d", c.IOSortFactor)
	case c.ParallelFetches < 1:
		return fmt.Errorf("mr: ParallelFetches must be >= 1, got %d", c.ParallelFetches)
	case c.MaxTaskAttempts < 1:
		return fmt.Errorf("mr: MaxTaskAttempts must be >= 1, got %d", c.MaxTaskAttempts)
	case c.ProgressQuantum <= 0 || c.ProgressQuantum > 0.5:
		return fmt.Errorf("mr: ProgressQuantum must be in (0, 0.5], got %g", c.ProgressQuantum)
	case c.DFSReplication < 1:
		return fmt.Errorf("mr: DFSReplication must be >= 1, got %d", c.DFSReplication)
	case c.MaxMapsPerFetch < 1:
		return fmt.Errorf("mr: MaxMapsPerFetch must be >= 1, got %d", c.MaxMapsPerFetch)
	case c.SlowStartFraction < 0 || c.SlowStartFraction > 1:
		return fmt.Errorf("mr: SlowStartFraction must be in [0,1], got %g", c.SlowStartFraction)
	case c.SpeculativeMinRemaining < 0:
		return fmt.Errorf("mr: SpeculativeMinRemaining must be >= 0, got %v", c.SpeculativeMinRemaining)
	}
	return nil
}

// Counters accumulate named job statistics.
type Counters map[string]int64

// Add increments a counter.
func (c Counters) Add(name string, delta int64) { c[name] += delta }

// Merge folds other into c.
func (c Counters) Merge(other Counters) {
	for k, v := range other {
		c[k] += v
	}
}
