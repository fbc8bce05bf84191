// Custom-workload shows how to bring your own MapReduce program to the
// runtime: an inverted-index job (document -> posting lists) defined
// entirely through the public Workload type, run under the full ALM
// framework with an injected node failure.
//
//	go run ./examples/custom-workload
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strings"

	"alm"
)

// invertedIndex builds term -> "doc:freq,doc:freq,..." posting lists.
func invertedIndex() *alm.Workload {
	vocabulary := []string{
		"failure", "amplification", "logging", "migration", "analytics",
		"shuffle", "merge", "reduce", "speculative", "recovery",
		"yarn", "hadoop", "cluster", "container", "scheduler",
	}
	return &alm.Workload{
		Name:              "inverted-index",
		AvgRecordBytes:    120, // one document line
		MapOutputRatio:    0.6, // term/doc pairs per input byte
		ReduceOutputRatio: 0.3,
		Map: func(docID, text string, emit func(k, v string)) {
			counts := map[string]int{}
			for _, w := range strings.Fields(text) {
				counts[w]++
			}
			terms := make([]string, 0, len(counts))
			for term := range counts {
				terms = append(terms, term)
			}
			sort.Strings(terms) // deterministic emission order
			for _, term := range terms {
				emit(term, fmt.Sprintf("%s:%d", docID, counts[term]))
			}
		},
		Reduce: func(term string, postings []string, emit func(k, v string)) {
			sorted := append([]string(nil), postings...)
			sort.Strings(sorted)
			emit(term, strings.Join(sorted, ","))
		},
		Gen: func(rng *rand.Rand, n int) []alm.Record {
			recs := make([]alm.Record, n)
			for i := range recs {
				var b strings.Builder
				words := rng.Intn(8) + 4
				for j := 0; j < words; j++ {
					if j > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(vocabulary[rng.Intn(len(vocabulary))])
				}
				recs[i] = alm.Record{Key: fmt.Sprintf("doc-%06d", rng.Intn(1_000_000)), Value: b.String()}
			}
			return recs
		},
	}
}

func main() {
	spec := alm.JobSpec{
		Workload:   invertedIndex(),
		InputBytes: 20 << 30,
		NumReduces: 8,
		Mode:       alm.ModeALM,
		Seed:       7,
	}
	// Kill the node hosting reducer 3 at 60% of the reduce phase; ALM
	// migrates it with FCM and resumes from the HDFS analytics log.
	plan := alm.StopNodeOfTaskAtReduceProgress(alm.ReduceTask, 3, 0.6)

	res, err := alm.Run(spec, alm.DefaultClusterSpec(), alm.WithFaults(plan))
	if err != nil {
		log.Fatal(err)
	}
	if !res.Completed {
		log.Fatalf("job failed: %s", res.FailReason)
	}

	fmt.Printf("inverted index built in %v despite a node failure\n", res.Duration)
	fmt.Printf("reduce attempt failures: %d (healthy tasks infected: %d)\n",
		res.ReduceAttemptFailures, res.AdditionalReduceFailures)
	fmt.Printf("ALG snapshots: %d, log replays: %d, FCM recoveries supplied %d bytes\n",
		res.Counters["alg.snapshots"],
		res.Counters["alg.restores.local"]+res.Counters["alg.restores.hdfs"]+res.Counters["alg.restores.fcm"],
		res.Counters["fcm.supply.bytes"])

	fmt.Printf("\nsample postings (%d terms total):\n", len(res.Output))
	for i, rec := range res.Output {
		if i >= 8 {
			break
		}
		v := rec.Value
		if len(v) > 60 {
			v = v[:57] + "..."
		}
		fmt.Printf("  %-14s %s\n", rec.Key, v)
	}
}
