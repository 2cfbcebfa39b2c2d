// Package adversary implements the edge-removal and activation strategies
// used by the paper — benign and randomized stress adversaries for the
// positive results, and one executable strategy per impossibility or
// lower-bound proof (Observations 1–2, Theorems 1, 9, 10, 13/15, 19, and
// the tight schedule of Figure 2) — plus the dynamics-model zoo of
// parameter-bearing families from the related work:
//
//   - TInterval (tinterval(T=k)): phase-aligned T-interval-connected
//     schedules — the missing edge changes only every T rounds
//     (Kuhn–Lynch–Oshman; the synchrony axis of Mandal–Molla–Moses 2020).
//   - CappedRemoval (capped(r=k)): at most r missing edges per round, the
//     multi-edge relaxation under which the ring may disconnect.
//   - BoundedBlocking / NewRecurrent (recurrent(w=k)): δ-recurrent
//     dynamics — every edge reappears within w+1 rounds (Ilcinkas–Wade).
//
// The paper's strategies satisfy 1-interval connectivity (at most one edge
// removed per round). CappedRemoval deliberately exceeds it through the
// engine's sim.MultiAdversary interface; every other strategy stays
// single-edge.
//
// The seeded strategies (RandomEdge, RandomActivation, TInterval) draw from
// an in-package source that reproduces rand.New(rand.NewSource(seed))
// draw for draw but seeds lazily: construction stores only the normalised
// seed, the first 273 draws are computed from it directly, and the 607-word
// register is built only if a run draws more. A run that makes fewer draws
// (most of them) never pays math/rand's seeding. Because the stream is
// identical (TestSourceMatchesMathRand proves it over 240 seeds), so is
// every Result: the source needs no fingerprint version of its own, and
// goldens and cache entries computed with math/rand stay valid.
package adversary
