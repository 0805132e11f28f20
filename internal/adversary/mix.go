package adversary

import (
	"strconv"

	"expensive/internal/msg"
)

// FNV-1a parameters, as hash/fnv's New32a and New64a use them.
const (
	offset32 = 2166136261
	prime32  = 16777619
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// keyCap is the stack buffer of one key: four int64 fields of at most 20
// decimal bytes each, with their separators. A longer key still hashes
// correctly; its buffer just moves to the heap.
const keyCap = 96

// appendKey appends the fields in decimal, joined by '|', to dst.
func appendKey(dst []byte, fields []int64) []byte {
	for i, v := range fields {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return dst
}

// fnv32 and fnv64 continue the FNV-1a hash h over the bytes of b.
func fnv32(h uint32, b []byte) uint32 {
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= prime32
	}
	return h
}

func fnv64[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// Mix32 is the 32-bit FNV-1a hash of the decimal key "f0|f1|…" — what
// fnv.New32a sums after fmt.Fprintf(h, "%d|%d|…", fields...) — computed
// without allocating. It is the per-message coin of the adversary's fault
// plans and of chaosnet's frame faults.
func Mix32(fields ...int64) uint32 {
	var buf [keyCap]byte
	return fnv32(offset32, appendKey(buf[:0], fields))
}

// coin makes deterministic pseudo-random decisions for messages under one
// seed: the same (seed, message identity) always lands the same way, which
// keeps predicate-based fault plans valid static adversaries. It holds the
// FNV-1a state after the key prefix "seed|", hashed once per plan or
// machine, so a flip hashes only "sender|receiver|round" and its hash is
// Mix32(seed, sender, receiver, round) by construction.
type coin uint32

func newCoin(seed int64) coin {
	var buf [keyCap]byte
	return coin(fnv32(offset32, append(strconv.AppendInt(buf[:0], seed, 10), '|')))
}

// flip reports whether message m falls under the biasPct percent side of
// the coin. Percentages outside 0..100 behave as the nearest bound
// (never/always).
func (c coin) flip(m msg.Message, biasPct int) bool {
	if biasPct <= 0 {
		return false
	}
	if biasPct >= 100 {
		return true
	}
	var buf [keyCap]byte
	key := appendKey(buf[:0], []int64{int64(m.Sender), int64(m.Receiver), int64(m.Round)})
	return fnv32(uint32(c), key)%100 < uint32(biasPct)
}

// Mix64 is the 64-bit FNV-1a hash of the key "label|f0|f1|…", fields in
// decimal, computed without allocating.
func Mix64(label string, fields ...int64) uint64 {
	var buf [keyCap]byte
	return fnv64(fnv64(offset64, label), appendKey(append(buf[:0], '|'), fields))
}

// subSeed mixes a seed with a salt string into a derived seed, so the
// independent random choices of one probe never share a stream.
// It is the 64-bit FNV-1a hash of the text "seed|salt", seed in decimal.
func subSeed(seed int64, salt string) int64 {
	var buf [keyCap]byte
	h := fnv64(offset64, append(strconv.AppendInt(buf[:0], seed, 10), '|'))
	return int64(fnv64(h, salt))
}

// SubSeed exposes the seed mixer to the fuzz package: campaign seed
// sweeps and the fuzzer's seed generation must derive their streams the
// same way, so there is exactly one mixer.
func SubSeed(seed int64, salt string) int64 { return subSeed(seed, salt) }
