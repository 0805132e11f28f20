package adversary

import "math/rand"

// The lagged-Fibonacci generator behind math/rand.NewSource, as its
// rngSource defines it: a ring of ringLen words, each draw adding the
// word ringTap places ahead into the feed word. Feed and tap start at
// ringLen−ringTap and 0 and step down, so draw j < ringTap reads ring
// words 333−j and 606−j, neither of which an earlier draw has
// overwritten: the first ringTap draws need only the seeded ring.
const (
	ringLen = 607
	ringTap = 273
	mod31   = 1<<31 - 1 // the seed group's modulus, 2³¹−1
	mul31   = 48271     // rngSource's seedrand multiplier
)

// ringWord holds what ring word i needs besides the seed x: rngSource.Seed
// packs seedrand steps 21+3i, 22+3i and 23+3i of x, and step k of x is
// x·48271ᵏ mod 2³¹−1, so pow holds those three powers; cooked is the
// word of math/rand's rngCooked table XORed into it.
type ringWord struct {
	pow    [3]uint64
	cooked uint64
}

// words is recovered once, through the public API: the powers by
// stepping seed 1 as seedrand does, cooked from the first ringLen draws
// of rand.NewSource(1).
var words [ringLen]ringWord

func init() {
	x := uint64(1)
	for k := 1; k <= 20; k++ {
		x = mulmod31(x, mul31)
	}
	for i := range words {
		for j := range words[i].pow {
			x = mulmod31(x, mul31)
			words[i].pow[j] = x
		}
	}

	// Output j of any seed's stream is y[ringLen+j] of the sequence
	// y[j+607] = y[j] + y[j+334], whose first ringLen terms are the
	// seeded ring read as y[k] = ring[(333−k) mod 607]. Running the
	// recurrence backwards from seed 1's first ringLen outputs recovers
	// seed 1's ring, and XORing out its seedrand words (word(1, i) while
	// cooked is still zero) leaves cooked.
	src := rand.NewSource(1).(rand.Source64)
	var y [2 * ringLen]uint64
	for j := ringLen; j < len(y); j++ {
		y[j] = src.Uint64()
	}
	for j := ringLen - 1; j >= 0; j-- {
		y[j] = y[j+ringLen] - y[j+ringLen-ringTap]
	}
	for i := range words {
		words[i].cooked = y[(ringLen+ringLen-ringTap-1-i)%ringLen] ^ word(1, i)
	}
}

// mulmod31 returns a·b mod 2³¹−1 for a, b < 2³¹. The final reduction is
// branch-free: whether it subtracts is a coin toss per call, which a
// branch would mispredict half the time.
func mulmod31(a, b uint64) uint64 {
	p := a * b
	r := p&mod31 + p>>31 - mod31 // wraps below zero when no subtraction is due
	return r + uint64(int64(r)>>63)&mod31
}

// word is ring word i as rngSource.Seed leaves it for the reduced seed x.
func word(x uint64, i int) uint64 {
	w := &words[i]
	return mulmod31(x, w.pow[0])<<40 ^ mulmod31(x, w.pow[1])<<20 ^ mulmod31(x, w.pow[2]) ^ w.cooked
}

// reduceSeed maps a seed into the seed group the way rngSource.Seed
// does: modulo 2³¹−1, with 0 replaced by 89482311.
func reduceSeed(seed int64) uint64 {
	seed %= mod31
	if seed < 0 {
		seed += mod31
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// source is a rand.Source64 whose stream equals rand.NewSource(seed)'s
// draw for draw, without seeding a ring up front. The first ringTap
// draws each compute their two untouched ring words from the seed
// directly; the ring is built only when a stream outlives them, and from
// then on the source steps it exactly as rngSource does.
type source struct {
	x    uint64           // the reduced seed
	n    int              // draws served lazily so far
	ring *[ringLen]uint64 // nil until draw ringTap
	tap  int
	feed int
}

var _ rand.Source64 = (*source)(nil)

// Seed implements rand.Source.
func (s *source) Seed(seed int64) { *s = source{x: reduceSeed(seed)} }

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.ring == nil {
		if s.n < ringTap {
			j := s.n
			s.n++
			return word(s.x, ringLen-ringTap-1-j) + word(s.x, ringLen-1-j)
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += ringLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += ringLen
	}
	x := s.ring[s.feed] + s.ring[s.tap]
	s.ring[s.feed] = x
	return x
}

// materialize builds the ring as rngSource holds it after ringTap
// draws: the seeded words, with each lazy draw's sum stored in its feed
// word, and tap and feed stepped down ringTap places.
func (s *source) materialize() {
	ring := new([ringLen]uint64)
	for i := range ring {
		ring[i] = word(s.x, i)
	}
	for j := 0; j < ringTap; j++ {
		ring[ringLen-ringTap-1-j] += ring[ringLen-1-j]
	}
	s.ring = ring
	s.tap = ringLen - ringTap
	s.feed = ringLen - ringTap - ringTap
}

// Stream returns the deterministic random stream of (seed, salt): the
// stream rand.New(rand.NewSource(subSeed(seed, salt))) draws, value for
// value, but seeded lazily, so a stream that is read a few times costs a
// few draws rather than a 607-word seeding. The strategies, the fuzzer's
// mutations and chaosnet's fault budgets all draw from it.
// rand.NewSource reduces its seed modulo 2³¹−1, and so does Stream: only
// about 31 bits of subSeed's 64-bit output select the stream, and two
// salts whose sub-seeds agree modulo 2³¹−1 share one stream.
func Stream(seed int64, salt string) *rand.Rand {
	return rand.New(&source{x: reduceSeed(subSeed(seed, salt))})
}
