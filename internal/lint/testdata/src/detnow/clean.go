package detnow

import (
	"math/rand"
	"sort"
)

// seededDraw is the blessed pattern: an explicit source derived from the
// run's seed, with draws on the returned *rand.Rand.
func seededDraw(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// commutativeBodies shows the map-iteration forms detnow accepts without
// a sort: pure accumulation, per-key set, delete, and guarded counting.
func commutativeBodies(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	doubled := make(map[string]int, len(m))
	for k, v := range m {
		doubled[k] = v * 2
	}
	for k := range doubled {
		if len(k) == 0 {
			delete(doubled, k)
		}
	}
	count := 0
	for _, v := range m {
		if v > 0 {
			count++
			continue
		}
	}
	return total + count
}

// commaOkCount shows that := locals (comma-ok map reads included) inside
// a range body are order-independent when the right-hand side has no
// calls.
func commaOkCount(a, b map[string]float64) int {
	n := 0
	for k, av := range a {
		if bv, ok := b[k]; ok && bv > av {
			n++
		}
	}
	return n
}

// integerProduct: *= on integers commutes (wraparound included).
func integerProduct(m map[string]int) int {
	p := 1
	for _, v := range m {
		p *= v
	}
	return p
}

// sortedKeys is the canonical deterministic map walk: collect, sort,
// then use.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
