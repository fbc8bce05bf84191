package detnow

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"alm/internal/trace"
)

func wallClock() time.Duration {
	start := time.Now() // want `time\.Now in deterministic simulation code`
	if start.IsZero() {
		end := time.Now() // want `time\.Now in deterministic simulation code`
		return end.Sub(start)
	}
	return 0
}

func globalRand() int {
	n := rand.Intn(10) // want `rand\.Intn draws from the process-global random source`
	f := rand.Float64() // want `rand\.Float64 draws from the process-global random source`
	return n + int(f)
}

func mapOrderLeaks(m map[string]int) {
	for k := range m { // want `map iteration with order-dependent body`
		fmt.Println(k)
	}
}

func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration appends to "keys" without sorting it afterwards`
		keys = append(keys, k)
	}
	return keys
}

func slotAppend(m map[string]int, byLen map[int][]string) {
	for k := range m { // want `map iteration with order-dependent body`
		byLen[len(k)] = append(byLen[len(k)], k)
	}
}

func lastWriterWins(m map[string]int) string {
	var last string
	for k := range m { // want `map iteration with order-dependent body`
		last = k
	}
	return last
}

// commaOkJoin sums floats in map order: float addition rounds, so the
// last bits of sum depend on the visit order (the fig14 bug).
func commaOkJoin(a, b map[string]float64) float64 {
	var sum float64
	for k, av := range a { // want `map iteration with order-dependent body`
		if bv, ok := b[k]; ok && bv > av {
			sum += bv - av
		}
	}
	return sum
}

func explicitAdd(durations map[string]float64) float64 {
	var sum float64
	for _, d := range durations { // want `map iteration with order-dependent body`
		sum = sum + d
	}
	return sum
}

func complexSum(m map[string]complex128) complex128 {
	var z complex128
	for _, v := range m { // want `map iteration with order-dependent body`
		z += v
	}
	return z
}

func concatKeys(m map[string]int) string {
	var s string
	for k := range m { // want `map iteration with order-dependent body`
		s += k
	}
	return s
}

// emitPerHost leaks map order into the event trace: the events land in
// iteration order.
func emitPerHost(c *trace.Collector, hosts map[string]string) {
	for h, n := range hosts { // want `map iteration with order-dependent body`
		c.Emit(0, trace.KindFetchFailure, h, n, "down")
	}
}

func collectNames(tasks map[int]string) []string {
	var out []string
	for _, name := range tasks { // want `map iteration appends to "out" without sorting it afterwards`
		out = append(out, name)
	}
	return out
}

func render(b []byte, v string) []byte {
	return append(b, v...)
}

func dumpValues(m map[string]string) []byte {
	var b []byte
	for _, v := range m { // want `map iteration with order-dependent body`
		b = render(b, v)
	}
	return b
}

func logLine(w io.Writer, s string) {
	fmt.Fprintln(w, s)
}

func flushPending(w io.Writer, pending map[string]string) {
	for h, p := range pending { // want `map iteration with order-dependent body`
		logLine(w, h+p)
	}
}

func dumpKeys(w io.Writer, m map[string]int) {
	for k := range m { // want `map iteration with order-dependent body`
		fmt.Fprintln(w, k)
	}
}
