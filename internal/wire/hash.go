package wire

import "encoding/binary"

// wiresmix is one split-mix round: the mixer behind hashBytes and the
// per-packet fault draws.
func wiresmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// hashBytes folds a packet's bytes into one word, eight at a time — the
// per-packet fault key. Probes vary per attempt (the scanner folds the
// attempt number into a wire field), so hashing the bytes means retries
// genuinely re-roll their fault draws.
func hashBytes(seed uint64, b []byte) uint64 {
	h := wiresmix(seed ^ uint64(len(b)))
	for len(b) >= 8 {
		h = wiresmix(h ^ binary.BigEndian.Uint64(b))
		b = b[8:]
	}
	var tail uint64
	for _, c := range b {
		tail = tail<<8 | uint64(c)
	}
	return wiresmix(h ^ tail)
}

// frac maps a hash word onto [0, 1).
func frac(h uint64) float64 { return float64(h>>11) / (1 << 53) }
