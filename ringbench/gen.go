package main

import (
	"hash/fnv"

	"dynring"
)

// The input generator. Every grid a workload submits is a pure function of
// the workload seed, a stream label and the grid's index in that stream, so
// the same --seed always yields the same inputs no matter how the two
// clients interleave, and the program under test only ever receives the
// generated specs.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is one labelled sequence of pseudo-random values under a seed.
type stream uint64

func newStream(seed int64, label string) stream {
	h := fnv.New64a()
	h.Write([]byte(label))
	return stream(mix(uint64(seed) ^ mix(h.Sum64())))
}

// at returns the i-th value of the stream.
func (s stream) at(i int) uint64 { return mix(uint64(s) + mix(uint64(i))) }

// seed returns the i-th value as a non-negative seed-axis value.
func (s stream) seed(i int) int64 { return int64(s.at(i) >> 1) }

const (
	coldSeeds = 8 // seed-axis length of a cold grid (96 rows)
	longSeeds = 2 // seed-axis length of a long-horizon grid (32 rows)
)

// coldGrid is grid k of a cold stream: {KnownNNoChirality,
// LandmarkWithChirality} × n∈{8,16,32} × {random(p=0.4), tinterval(T=3)} ×
// 8 fresh seeds, 96 rows. Seeded adversaries keep the seed in every
// fingerprint, so fresh seed-axis values give fresh fingerprints.
func coldGrid(s stream, k int) dynring.SweepSpec {
	seeds := make([]int64, coldSeeds)
	for j := range seeds {
		seeds[j] = s.seed(k*coldSeeds + j)
	}
	return dynring.SweepSpec{
		Base:       dynring.ScenarioSpec{Size: 8, Landmark: 0, Algorithm: "KnownNNoChirality"},
		Algorithms: []string{"KnownNNoChirality", "LandmarkWithChirality"},
		Sizes:      []int{8, 16, 32},
		Adversaries: []dynring.AdversarySpec{
			{Kind: "random", P: 0.4},
			{Kind: "tinterval", T: 3},
		},
		Seeds: seeds,
	}
}

// longGrid is grid k of a long-horizon stream: {UnconsciousExploration,
// ETUnconscious} × n∈{64,256} × {random(p=0.5), greedy, recurrent(w=4),
// persistent(e)} × 2 fresh seeds, 32 rows. greedy, recurrent and
// persistent ignore the seed, so the second seed of each of their cells
// replays from the sweep's Memo: 12 of 32 rows (see longReplayRatio).
func longGrid(s stream, k int) dynring.SweepSpec {
	seeds := make([]int64, longSeeds)
	for j := range seeds {
		seeds[j] = s.seed(k*(longSeeds+1) + j)
	}
	edge := int(s.at(k*(longSeeds+1)+longSeeds) % 64)
	return dynring.SweepSpec{
		Base:       dynring.ScenarioSpec{Size: 64, Landmark: dynring.NoLandmark, Algorithm: "UnconsciousExploration"},
		Algorithms: []string{"UnconsciousExploration", "ETUnconscious"},
		Sizes:      []int{64, 256},
		Adversaries: []dynring.AdversarySpec{
			{Kind: "random", P: 0.5},
			{Kind: "greedy"},
			{Kind: "recurrent", W: 4},
			{Kind: "persistent", Edge: edge},
		},
		Seeds: seeds,
	}
}

// longReplayRatio is the memo replay ratio a long-horizon grid implies:
// three of its four adversaries are seed-insensitive, and each of their
// cells executes once and replays for its other longSeeds-1 seeds.
const longReplayRatio = 3.0 * (longSeeds - 1) / (4.0 * longSeeds)

// gridRows is the row count of an axis-form spec.
func gridRows(sp dynring.SweepSpec) int {
	return len(sp.Algorithms) * len(sp.Sizes) * len(sp.Adversaries) * len(sp.Seeds)
}

// rowAdversary returns the adversary-axis entry of row i of an axis-form
// spec (axes expand algorithms, sizes, adversaries, seeds, innermost last).
func rowAdversary(sp dynring.SweepSpec, i int) dynring.AdversarySpec {
	return sp.Adversaries[(i/len(sp.Seeds))%len(sp.Adversaries)]
}

// sampled reports whether row i of grid k is in the seeded verification
// sample: about one row in every `every`.
func sampled(s stream, k, i, every int) bool {
	return mix(uint64(s)^uint64(k)<<20^uint64(i))%uint64(every) == 0
}
