package adversary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
)

// streamSeeds is the edge table — both signs of the modulus, its
// multiples (which reduce to the 89482311 substitute), the substitute
// itself, and the int64 extremes — plus 1000 random seeds.
func streamSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, mod31 - 1, mod31, -mod31, mod31 + 1, -mod31 - 1,
		2 * mod31, -3 * mod31, mod31 * (math.MaxInt64 / mod31), 89482311, -89482311,
		1 << 31, 1 << 32, math.MaxInt32, math.MinInt32, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1}
	r := rand.New(rand.NewSource(20261018))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// drawMixed runs one step of a method mix over r and folds its result
// into a word, so the lazy and stdlib streams can be compared method by
// method.
func drawMixed(r *rand.Rand, op int) uint64 {
	fold := func(s []int) uint64 {
		var h uint64
		for _, v := range s {
			h = h*31 + uint64(v)
		}
		return h
	}
	switch op % 11 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Intn(7)) // odd bound: rejection sampling
	case 3:
		return uint64(r.Intn(16)) // power of two: masking
	case 4:
		return uint64(r.Int31n(1<<30 + 1)) // high rejection rate
	case 5:
		return math.Float64bits(r.Float64())
	case 6:
		return fold(r.Perm(5))
	case 7:
		s := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return fold(s)
	case 8:
		return uint64(r.Int63n(1<<62 + 3))
	case 9:
		return uint64(r.Uint32())<<32 | uint64(r.Int31())
	default:
		return uint64(r.Intn(math.MaxInt64))
	}
}

func TestCookedRecovered(t *testing.T) {
	// Three entries of math/rand's rngCooked table, as printed in its source.
	for i, want := range map[int]int64{0: -4181792142133755926, 1: -4576982950128230565, 606: 4152330101494654406} {
		if got := int64(words[i].cooked); got != want {
			t.Errorf("words[%d].cooked = %d, math/rand has %d", i, got, want)
		}
	}
}

func TestStreamMethodsMatchStdlib(t *testing.T) {
	pick := rand.New(rand.NewSource(7))
	for i, seed := range streamSeeds() {
		// Edge seeds run 2000 mixed ops, random seeds a random count. Six
		// random seeds first read exactly 271 to 274 raw values, so mixed
		// ops start on both sides of the draw where the ring is built.
		raw, ops := 0, 2000
		if i >= 22 {
			ops = pick.Intn(2001)
		}
		if i >= 22 && i < 28 {
			raw = ringTap - 2 + i%4
		}
		lazy, std := rand.New(&source{x: reduceSeed(seed)}), rand.New(rand.NewSource(seed))
		for j := 0; j < raw; j++ {
			if got, want := lazy.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: lazy %#x, math/rand %#x", seed, j, got, want)
			}
		}
		for op := 0; op < ops; op++ {
			if got, want := drawMixed(lazy, op+i), drawMixed(std, op+i); got != want {
				t.Fatalf("seed %d op %d (kind %d): lazy %#x, math/rand %#x", seed, op, (op+i)%11, got, want)
			}
		}
	}
}

func TestStreamReseedMatchesStdlib(t *testing.T) {
	lazy, std := rand.New(&source{x: reduceSeed(5)}), rand.New(rand.NewSource(5))
	for _, seed := range []int64{0, -mod31, math.MinInt64, 424242} {
		for _, n := range []int{3, 300} {
			lazy.Seed(seed)
			std.Seed(seed)
			for j := 0; j < n; j++ {
				if got, want := lazy.Int63(), std.Int63(); got != want {
					t.Fatalf("reseed %d draw %d: lazy %d, math/rand %d", seed, j, got, want)
				}
			}
		}
	}
}

func TestStreamIsSubSeededStdlib(t *testing.T) {
	for _, k := range mixKeys()[:500] {
		for _, salt := range mixSalts() {
			got, want := Stream(k[0], salt), rand.New(rand.NewSource(subSeed(k[0], salt)))
			for j := 0; j < 4; j++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("Stream(%d, %q) draw %d = %d, math/rand %d", k[0], salt, j, g, w)
				}
			}
		}
	}
}

func TestCoinMatchesMix32(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	field := func() int64 {
		switch r.Intn(4) {
		case 0:
			return int64(r.Intn(64))
		case 1:
			return int64(r.Intn(1 << 20))
		case 2:
			return -int64(r.Intn(1<<20)) - 1
		default:
			return int64(r.Uint64())
		}
	}
	for i := 0; i < 20000; i++ {
		seed := field()
		if i%2 == 1 {
			seed = -r.Int63() - 1 // every other key has a negative seed
		}
		m := msg.Message{Sender: proc.ID(field()), Receiver: proc.ID(field()), Round: int(field())}
		h := Mix32(seed, int64(m.Sender), int64(m.Receiver), int64(m.Round))
		c := newCoin(seed)
		for _, bias := range []int{math.MinInt, -1, 0, 1, 40, 99, 100, 101, math.MaxInt} {
			want := bias >= 100 || bias > 0 && h%100 < uint32(bias)
			if got := c.flip(m, bias); got != want {
				t.Fatalf("newCoin(%d).flip(%v, %d) = %v, Mix32 says %v", seed, m, bias, got, want)
			}
		}
	}
}

// BenchmarkStream reads n values from a fresh stream: the lazy source
// against the rand.NewSource stream it reproduces.
func BenchmarkStream(b *testing.B) {
	for _, n := range []int{2, 16, 273, 274, 2000} {
		b.Run(fmt.Sprintf("%d/lazy", n), func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				r := rand.New(&source{x: reduceSeed(int64(i))})
				for j := 0; j < n; j++ {
					sink += r.Int63()
				}
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("%d/stdlib", n), func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for j := 0; j < n; j++ {
					sink += r.Int63()
				}
			}
			_ = sink
		})
	}
}
