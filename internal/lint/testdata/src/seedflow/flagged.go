package seedflow

import (
	"math/rand"
	"time"
)

func literalSeed() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want `literal-only seed`
}

func timeSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `seed derived from wall-clock time`
}

func unrelatedDerivation(workerID int64) *rand.Rand {
	return rand.New(rand.NewSource(workerID * 31)) // want `seed does not reference any Seed-named parameter \(saw workerID\)`
}

func literalReseed(rng *rand.Rand) {
	rng.Seed(7) // want `literal-only seed`
}

func timeReseed(rng *rand.Rand) {
	rng.Seed(time.Now().UnixNano()) // want `seed derived from wall-clock time`
}

func unrelatedReseed(rng *rand.Rand, split int64) {
	rng.Seed(split) // want `seed does not reference any Seed-named parameter \(saw split\)`
}
