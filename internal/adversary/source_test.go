package adversary

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynring/internal/agent"
	"dynring/internal/ring"
	"dynring/internal/sim"
)

// streamSeeds returns the identity test's seeds: the normalisation edge
// cases (zero, ±1, ±(2^31−1) and its multiples, which math/rand maps to its
// zero-seed substitute, the int64 extremes) plus seeded-random filler.
func streamSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		int32max, -int32max, int32max - 1, -(int32max - 1), int32max + 1, -(int32max + 1),
		2 * int32max, -2 * int32max, 3*int32max + 7, 1 << 31, -(1 << 31), 1 << 32,
		math.MaxInt64 / int32max * int32max, math.MinInt64 / int32max * int32max,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32,
	}
	r := rand.New(rand.NewSource(20261017))
	for len(seeds) < 240 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, r.Int63())
		case 1:
			seeds = append(seeds, -r.Int63())
		default:
			seeds = append(seeds, int64(r.Intn(1<<20))-1<<19)
		}
	}
	return seeds
}

// streamNs covers both Intn paths with power-of-two and rejection-sampled
// bounds: n ≤ 2^31−1 (Int31n) and n > 2^31−1 (Int63n).
var streamNs = []int{
	1, 2, 3, 5, 7, 8, 10, 64, 100, 1000, 1 << 20, 1<<30 + 1, 1 << 30, int32max - 1, int32max,
	int32max + 1, 1 << 31, 1<<31 + 1, 1 << 40, 3 << 40, 1 << 62, 1<<62 + 1, math.MaxInt64,
}

// TestSourceMatchesMathRand is the stream-identity proof the lazy source
// rests on: for every seed, interleaved Float64 and Intn draws equal
// rand.New(rand.NewSource(seed))'s, across the draw-274 materialisation
// point and several register wraps.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3200 // > 5 register lengths
	for _, seed := range streamSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := newSource(seed)
		for i := 0; i < draws; i++ {
			if i%3 == 0 {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
				}
				continue
			}
			n := streamNs[(i/3+int(uint64(seed)%7))%len(streamNs)]
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
	}
}

// TestSourceSeedsLazily pins the laziness contract: the first rngTap draws
// leave the register unallocated; the next one materialises it.
func TestSourceSeedsLazily(t *testing.T) {
	s := newSource(42)
	for i := 0; i < rngTap; i++ {
		s.uint64()
	}
	if s.vec != nil {
		t.Fatalf("register materialised within the first %d draws", rngTap)
	}
	s.uint64()
	if s.vec == nil {
		t.Fatalf("register still lazy after draw %d", rngTap+1)
	}
}

// TestSeededAdversaryAllocs gates the construction economics: building each
// seeded adversary and making 200 draws from its source allocates exactly
// the adversary itself.
func TestSeededAdversaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	cases := map[string]func(seed int64) *source{
		"random":     func(seed int64) *source { return &NewRandomEdge(0.5, seed).rng },
		"activation": func(seed int64) *source { return &NewRandomActivation(0.5, seed, nil).rng },
		"tinterval":  func(seed int64) *source { return &NewTInterval(2, seed).rng },
	}
	for name, build := range cases {
		seed := int64(0)
		avg := testing.AllocsPerRun(100, func() {
			seed++
			s := build(seed)
			for i := 0; i < 200; i++ {
				s.Float64()
			}
		})
		if avg != 1 {
			t.Errorf("%s: construction + 200 draws allocates %.2f objects, want 1", name, avg)
		}
	}
}

// mathRandActivation is RandomActivation.Activate as written against
// math/rand, allocating a fresh slice per round: the reference the
// buffer-reusing version must match choice for choice.
type mathRandActivation struct {
	rng *rand.Rand
	p   float64
}

func (r *mathRandActivation) activate(w *sim.World) []int {
	var ids []int
	for i := 0; i < w.NumAgents(); i++ {
		if w.AgentTerminated(i) {
			continue
		}
		if r.rng.Float64() < r.p {
			ids = append(ids, i)
		}
	}
	if len(ids) == 0 {
		var live []int
		for i := 0; i < w.NumAgents(); i++ {
			if !w.AgentTerminated(i) {
				live = append(live, i)
			}
		}
		if len(live) > 0 {
			ids = append(ids, live[r.rng.Intn(len(live))])
		}
	}
	return ids
}

// activationCheck drives a world with RandomActivation while comparing
// every round's choice against the math/rand reference.
type activationCheck struct {
	t    *testing.T
	got  *RandomActivation
	want *mathRandActivation
}

func (c *activationCheck) Activate(t int, w *sim.World) []int {
	got, want := c.got.Activate(t, w), c.want.activate(w)
	if !slices.Equal(got, want) {
		c.t.Fatalf("round %d: Activate = %v, math/rand reference %v", t, got, want)
	}
	return got
}

func (c *activationCheck) MissingEdge(int, *sim.World, []sim.Intent) int { return sim.NoEdge }

// quitter circles until its k-th activation, then terminates.
type quitter struct{ k int }

func (q *quitter) Step(agent.View) (agent.Decision, error) {
	if q.k--; q.k <= 0 {
		return agent.Terminate, nil
	}
	return agent.Move(agent.Right), nil
}
func (q *quitter) State() string         { return "quitter" }
func (q *quitter) Clone() agent.Protocol { cp := *q; return &cp }

// TestRandomActivationMatchesMathRand pins RandomActivation's choices,
// including the wake-one-live-agent fallback once agents start
// terminating, to the math/rand implementation it replaced.
func TestRandomActivationMatchesMathRand(t *testing.T) {
	rg, err := ring.New(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.05, 0.3, 0.9} {
		for seed := int64(1); seed <= 20; seed++ {
			protos := []agent.Protocol{&quitter{k: 40}, &quitter{k: 400}, &quitter{k: 90}, &quitter{k: 1 << 30}, &quitter{k: 7}}
			chk := &activationCheck{
				t:    t,
				got:  NewRandomActivation(p, seed, nil),
				want: &mathRandActivation{rng: rand.New(rand.NewSource(seed)), p: p},
			}
			w, err := sim.NewWorld(sim.Config{
				Ring: rg, Model: sim.SSyncNS,
				Starts:    []int{0, 3, 6, 9, 12},
				Orients:   []ring.GlobalDir{ring.CW, ring.CCW, ring.CW, ring.CCW, ring.CW},
				Protocols: protos, Adversary: chk,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1500; i++ {
				if err := w.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if !w.AgentTerminated(0) || w.AgentTerminated(3) {
				t.Fatalf("p=%v seed %d: run never reached the terminated-agent fallback", p, seed)
			}
		}
	}
}

var sinkFloat float64

// BenchmarkSourceSeed100 is a typical run's source cost: seed, then 100
// draws. BenchmarkMathRandSeed100 is the math/rand equivalent.
func BenchmarkSourceSeed100(b *testing.B) {
	seed := int64(0)
	for b.Loop() {
		seed++
		s := newSource(seed)
		for i := 0; i < 100; i++ {
			sinkFloat += s.Float64()
		}
	}
}

func BenchmarkMathRandSeed100(b *testing.B) {
	seed := int64(0)
	for b.Loop() {
		seed++
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			sinkFloat += r.Float64()
		}
	}
}

// BenchmarkSourceSteady is the long-run draw cost after materialisation
// (long-horizon rows make ~50k draws). BenchmarkMathRandSteady is the
// math/rand equivalent.
func BenchmarkSourceSteady(b *testing.B) {
	s := newSource(1)
	for i := 0; i <= rngLen; i++ {
		s.Float64()
	}
	for b.Loop() {
		sinkFloat += s.Float64()
	}
}

func BenchmarkMathRandSteady(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i <= rngLen; i++ {
		r.Float64()
	}
	for b.Loop() {
		sinkFloat += r.Float64()
	}
}
