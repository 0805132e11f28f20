package adversary

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"expensive/internal/msg"
	"expensive/internal/proc"
)

// The reference formulation the mixer replaced: every stream, report and
// certificate recorded before it rests on these exact hash values.

func refCoinHash(seed int64, m msg.Message) uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%d|%d|%d", seed, m.Sender, m.Receiver, m.Round)
	return h.Sum32()
}

func refSubSeed(seed int64, salt string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, salt)
	return int64(h.Sum64())
}

// mixKeys is the edge table plus a few thousand seed-derived random keys.
func mixKeys() [][4]int64 {
	edges := []int64{0, 1, -1, 9, 10, -10, 99, 100, math.MaxInt32, math.MinInt32,
		1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	var keys [][4]int64
	for _, a := range edges {
		for _, b := range edges {
			keys = append(keys, [4]int64{a, b, b, a}, [4]int64{a, 0, b, math.MaxInt64})
		}
	}
	r := rand.New(rand.NewSource(20240617))
	draw := func() int64 {
		switch r.Intn(3) {
		case 0:
			return int64(r.Intn(64))
		case 1:
			return r.Int63()
		default:
			return -r.Int63() - 1
		}
	}
	for i := 0; i < 4000; i++ {
		keys = append(keys, [4]int64{draw(), draw(), draw(), draw()})
	}
	return keys
}

func mixSalts() []string {
	return []string{"", "a", "|", "random-omission(bias=40%)", "ünïcødé|α→β", "\x00\xff",
		"union(random-send-omission(bias=25%), targeted-withhold)|a", strings.Repeat("long salt ", 40)}
}

func TestCoinMatchesReference(t *testing.T) {
	for _, k := range mixKeys() {
		m := msg.Message{Sender: proc.ID(k[1]), Receiver: proc.ID(k[2]), Round: int(k[3])}
		want := refCoinHash(k[0], m)
		if got := Mix32(k[0], k[1], k[2], k[3]); got != want {
			t.Fatalf("Mix32%v = %#x, reference %#x", k, got, want)
		}
		for _, bias := range []int{-5, 0, 1, 40, 99, 100, 250} {
			ref := bias >= 100 || bias > 0 && want%100 < uint32(bias)
			if got := newCoin(k[0]).flip(m, bias); got != ref {
				t.Fatalf("newCoin(%d).flip(%v, %d) = %v, reference %v", k[0], m, bias, got, ref)
			}
		}
	}
}

func TestSubSeedMatchesReference(t *testing.T) {
	for _, k := range mixKeys() {
		for _, salt := range mixSalts() {
			if got, want := subSeed(k[0], salt), refSubSeed(k[0], salt); got != want {
				t.Fatalf("subSeed(%d, %q) = %d, reference %d", k[0], salt, got, want)
			}
		}
	}
}

func TestMixerAllocationFree(t *testing.T) {
	m := msg.Message{Sender: 3, Receiver: 11, Round: 7}
	salt := strings.Repeat("long salt ", 40)
	if a := testing.AllocsPerRun(100, func() { newCoin(math.MinInt64).flip(m, 40) }); a != 0 {
		t.Errorf("coin allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { subSeed(math.MinInt64, salt) }); a != 0 {
		t.Errorf("subSeed allocates %v times per call", a)
	}
}
