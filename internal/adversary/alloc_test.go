package adversary

import (
	"testing"

	"dynring/internal/agent"
	"dynring/internal/ring"
	"dynring/internal/sim"
)

// circler moves in one private direction forever: a live, allocation-free
// protocol that keeps a world stepping.
type circler struct{}

func (circler) Step(agent.View) (agent.Decision, error) { return agent.Move(agent.Right), nil }
func (circler) State() string                           { return "circling" }
func (c circler) Clone() agent.Protocol                 { return c }

// TestStepZeroAllocZoo extends the engine's steady-state zero-allocation
// contract to the adversaries the service runs most: World.Step under each
// SSYNC model and each of none, persistent, greedy, random(p),
// tinterval(T) and act(p)+random(p) allocates nothing per round once warm.
// Warm-up runs the seeded sources past draw rngTap, so the gate covers the
// materialised recurrence, not only the lazy prefix.
func TestStepZeroAllocZoo(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	advs := []struct {
		name string
		make func() (sim.Adversary, []*source)
	}{
		{"none", func() (sim.Adversary, []*source) { return None{}, nil }},
		{"persistent", func() (sim.Adversary, []*source) { return PersistentEdge{Edge: 3}, nil }},
		{"greedy", func() (sim.Adversary, []*source) { return GreedyBlocker{}, nil }},
		{"random", func() (sim.Adversary, []*source) {
			a := NewRandomEdge(0.5, 7)
			return a, []*source{&a.rng}
		}},
		{"tinterval", func() (sim.Adversary, []*source) {
			a := NewTInterval(1, 7)
			return a, []*source{&a.rng}
		}},
		{"act+random", func() (sim.Adversary, []*source) {
			e := NewRandomEdge(0.5, 7)
			a := NewRandomActivation(0.5, 8, e)
			return a, []*source{&a.rng, &e.rng}
		}},
	}
	models := []struct {
		name  string
		model sim.Model
	}{{"ns", sim.SSyncNS}, {"pt", sim.SSyncPT}, {"et", sim.SSyncET}}
	for _, m := range models {
		for _, tc := range advs {
			t.Run(m.name+"/"+tc.name, func(t *testing.T) {
				adv, srcs := tc.make()
				w := circlingWorld(t, 64, 3, m.model, adv)
				for i := 0; i < 1000; i++ {
					if err := w.Step(); err != nil {
						t.Fatal(err)
					}
				}
				for _, s := range srcs {
					if s.vec == nil {
						t.Fatalf("warm-up left a source lazy (feed %d)", s.feed)
					}
				}
				avg := testing.AllocsPerRun(200, func() {
					if err := w.Step(); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Fatalf("World.Step allocates %.2f objects/round in steady state, want 0", avg)
				}
			})
		}
	}
}

// circlingWorld builds an n-node world with m circlers spread evenly, in
// alternating orientations.
func circlingWorld(t *testing.T, n, m int, model sim.Model, adv sim.Adversary) *sim.World {
	t.Helper()
	rg, err := ring.New(n)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, m)
	orients := make([]ring.GlobalDir, m)
	protos := make([]agent.Protocol, m)
	for i := range protos {
		starts[i] = i * n / m
		orients[i] = ring.CW
		if i%2 == 1 {
			orients[i] = ring.CCW
		}
		protos[i] = circler{}
	}
	w, err := sim.NewWorld(sim.Config{
		Ring: rg, Model: model, Starts: starts, Orients: orients,
		Protocols: protos, Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}
