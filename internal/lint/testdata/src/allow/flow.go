// The flow-sensitive analyzers (timerflow, allocflow) and detnow's
// float-accumulation rule honour the same //almvet:allow single-line
// scoping as the rest of the suite: each pair below silences one
// violation and reports its twin one line down.
package allow

import (
	"alm/internal/sim"
)

func floatSumPair(m map[string]float64) (float64, float64) {
	var a, b float64
	for _, v := range m { //almvet:allow detnow -- fixture: proves same-line suppression
		a += v
	}
	for _, v := range m { // want `map iteration with order-dependent body`
		b += v
	}
	return a, b
}

func timerflowPair(e *sim.Engine, t1, t2 *sim.Timer, d sim.Time, fn func()) {
	t1.Stop()
	t1 = e.Schedule(d, fn) //almvet:allow timerflow -- fixture: proves same-line suppression
	t2.Stop()
	t2 = e.Schedule(d, fn) // want `timer re-armed with Stop\+Schedule; use Reschedule`
	t1.Stop()
	t2.Stop()
}

// allocflowPair needs the hotpath marker: allocflow is opt-in like
// hotalloc.
//
//alm:hotpath
func allocflowPair(tasks []int) ([]int, []int) {
	var xs []int
	var ys []int
	for _, t := range tasks {
		xs = append(xs, t) //almvet:allow allocflow -- fixture: proves same-line suppression
		ys = append(ys, t) // want `append to ys in a loop without preallocated capacity`
	}
	return xs, ys
}
