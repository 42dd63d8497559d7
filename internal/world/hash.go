package world

import "seedscan/internal/ipaddr"

// Deterministic hashing underpins the entire simulation: whether an address
// exists, which protocols it listens on, whether it churns away between the
// seed-collection and scan epochs, and whether an individual probe is lost
// are all pure functions of (world seed, address, tag). This lets the world
// answer membership queries over the 2^128 address space without enumerating
// anything, and makes every experiment reproducible.

// Tags namespace the independent random decisions per address.
const (
	tagExists uint64 = iota + 1
	tagProto
	tagChurn
	tagBirth
	tagLoss
	tagRST
	tagUnreach
	tagRate
	tagTCPSeq
	tagFlap
	// tagASSeed seeds the per-AS generator RNG, so each AS's regions can
	// materialize lazily and independently of every other AS.
	tagASSeed
	tagCount
)

// hash is Mix64(seed, tag, vals...): the world's decision hash, continued
// from the (seed, tag) prefix New folded once, so each draw pays only for
// the values that vary.
func (w *World) hash(tag uint64, vals ...uint64) uint64 {
	return ipaddr.MixOn(w.tagged[tag], vals...)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
