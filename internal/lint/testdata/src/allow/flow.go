// detnow's float-accumulation rule honours the same //almvet:allow
// single-line scoping as the rest of the suite: the pair below silences
// one violation and reports its twin one line down.
package allow

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
