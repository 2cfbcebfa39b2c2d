package adversary

// source reproduces the stream of rand.New(rand.NewSource(seed)) draw for
// draw, but seeds lazily. math/rand seeds by running 1841 LCG steps to fill
// a 607-word register, which costs more than a typical run's few dozen
// draws. Here seeding stores only the normalised seed x0. Register word i is
// a pure function of x0 (word), and the first rngTap draws read only words
// no earlier draw has written, so they are served without any register.
// Draw rngTap+1 is the first to read a written word: it materialises the
// register once and the standard lagged-Fibonacci recurrence takes over.
//
// A source is a value with no allocation until materialisation; the
// adversaries embed it directly. TestSourceMatchesMathRand proves the
// stream identity that keeps every Result, golden and cache entry valid.
type source struct {
	x0   uint64         // normalised seed in [1, int32max)
	feed int            // register index the last draw wrote; rngLen-rngTap before the first
	vec  *[rngLen]int64 // feedback register; nil until draw rngTap+1
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedMul is the multiplier of math/rand's seeding LCG
	// x[j+1] = seedMul·x[j] mod int32max.
	seedMul = 48271
	// seedSteps is the number of LCG steps math/rand's seeding takes: 20
	// discarded, then three per register word.
	seedSteps = 20 + 3*rngLen
)

// seedPow[j] = seedMul^j mod int32max, so the seeding LCG's j-th state is
// mulmod(seedPow[j], x0) with no sequential chain.
var seedPow = func() (p [seedSteps + 1]uint32) {
	x := uint64(1)
	for j := range p {
		p[j] = uint32(x)
		x = mulmod(x, seedMul)
	}
	return p
}()

// mulmod returns a·b mod (2^31−1) for a, b < 2^31, by Mersenne folding
// instead of division.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// newSource returns a source seeded exactly as rand.NewSource(seed).
func newSource(seed int64) source {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return source{x0: uint64(seed), feed: rngLen - rngTap}
}

// word returns register word i as math/rand's seeding leaves it.
func (s *source) word(i int) int64 {
	j := 21 + 3*i
	u := int64(mulmod(uint64(seedPow[j]), s.x0)) << 40
	u ^= int64(mulmod(uint64(seedPow[j+1]), s.x0)) << 20
	u ^= int64(mulmod(uint64(seedPow[j+2]), s.x0))
	return u ^ rngCooked[i]
}

// uint64 is math/rand's lagged-Fibonacci step x[n] = x[n-607] + x[n-273]:
// each draw moves feed down one word and adds the tap word, rngTap words
// above it, into it. Once the register exists this is the whole cost of a
// draw: one nil test, then the recurrence.
func (s *source) uint64() uint64 {
	if s.vec == nil {
		return s.lazyUint64()
	}
	feed := s.feed - 1
	if feed < 0 {
		feed = rngLen - 1
	}
	tap := feed + rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	s.feed = feed
	return uint64(x)
}

// lazyUint64 serves draws 1..rngTap, whose feed and tap words no earlier
// draw has written, straight from word. Draw rngTap+1 materialises the
// register, replays the writes the lazy draws made, and hands over to the
// recurrence.
func (s *source) lazyUint64() uint64 {
	if s.feed > rngLen-2*rngTap {
		s.feed--
		return uint64(s.word(s.feed) + s.word(s.feed+rngTap))
	}
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.word(i)
	}
	for f := s.feed; f < rngLen-rngTap; f++ {
		vec[f] += vec[f+rngTap]
	}
	s.vec = vec
	return s.uint64()
}

func (s *source) int63() int64 { return int64(s.uint64() & rngMask) }

// Float64 is (*rand.Rand).Float64.
func (s *source) Float64() float64 {
again:
	f := float64(s.int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// Intn is (*rand.Rand).Intn.
func (s *source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is (*rand.Rand).Int31n for n > 0.
func (s *source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.int63() >> 32)
	for v > max {
		v = int32(s.int63() >> 32)
	}
	return v % n
}

// int63n is (*rand.Rand).Int63n for n > 0.
func (s *source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > max {
		v = s.int63()
	}
	return v % n
}
