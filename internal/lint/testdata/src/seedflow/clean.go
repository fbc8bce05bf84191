package seedflow

import "math/rand"

type options struct {
	Seed int64
}

// fromParameter is the canonical derivation: the run's seed, optionally
// mixed with a stable stream index.
func fromParameter(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// fromConfig derives from a Seed-carrying config struct.
func fromConfig(o options) *rand.Rand {
	return rand.New(rand.NewSource(o.Seed))
}

// reseedPerStream reuses one generator and reseeds it per stream with the
// same derivation a fresh source would get.
func reseedPerStream(rng *rand.Rand, seed int64, stream int) {
	rng.Seed(seed*1_000_003 + int64(stream))
}
