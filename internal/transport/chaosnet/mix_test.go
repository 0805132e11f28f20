package chaosnet

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"expensive/internal/proc"
)

// The reference formulation the shared mixer replaced: every chaos run
// recorded before it rests on these exact hash values.

func refSide(seed int64, window int, id proc.ID) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%d|%d", seed, window, id)
	return h.Sum32()%2 == 0
}

func refHit(seed int64, from, to proc.ID, seq, pct int) bool {
	if pct <= 0 {
		return false
	}
	if pct >= 100 {
		return true
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%d|%d|%d", seed, from, to, seq)
	return h.Sum32()%100 < uint32(pct)
}

func refDelayFor(seed int64, from, to proc.ID, seq int, max time.Duration) time.Duration {
	if max <= 0 {
		max = 10 * time.Millisecond
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "delay|%d|%d|%d|%d", seed, from, to, seq)
	return 1 + time.Duration(h.Sum64()%uint64(max))
}

func TestFaultHashesMatchReference(t *testing.T) {
	edges := []int64{0, 1, -1, 9, 10, 99, 100, -100, math.MaxInt32, math.MinInt32,
		1 << 40, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	var keys [][4]int64
	for _, a := range edges {
		for _, b := range edges {
			keys = append(keys, [4]int64{a, b, b, a}, [4]int64{b, 3, 5, a})
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
	for _, k := range keys {
		seed, from, to, seq := k[0], proc.ID(k[1]), proc.ID(k[2]), int(k[3])
		if got, want := side(seed, seq, from), refSide(seed, seq, from); got != want {
			t.Fatalf("side(%d, %d, %d) = %v, reference %v", seed, seq, from, got, want)
		}
		for _, pct := range []int{-1, 0, 1, 25, 50, 99, 100, 150} {
			if got, want := hit(seed, from, to, seq, pct), refHit(seed, from, to, seq, pct); got != want {
				t.Fatalf("hit(%v, %d) = %v, reference %v", k, pct, got, want)
			}
		}
		for _, max := range []time.Duration{0, 1, 7 * time.Millisecond, time.Hour, math.MaxInt64} {
			if got, want := delayFor(seed, from, to, seq, max), refDelayFor(seed, from, to, seq, max); got != want {
				t.Fatalf("delayFor(%v, %v) = %v, reference %v", k, max, got, want)
			}
		}
	}
}

func TestHitAllocationFree(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { hit(math.MinInt64, 3, 11, 1<<40, 25) }); a != 0 {
		t.Errorf("hit allocates %v times per call", a)
	}
}
