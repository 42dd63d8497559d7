package entropyip

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/tga"
)

// refBuildModel is BuildModel as it was when segment values were counted
// under string keys, one byte slice built per seed per segment. It is the
// reference the packed-key counting is held to.
func refBuildModel(seeds []ipaddr.Addr) *model {
	h := tga.PositionEntropy(seeds)
	var segments []segment
	start := 0
	classify := func(i int) bool { return h[i] >= entropyThreshold }
	for i := 1; i <= ipaddr.NybbleCount; i++ {
		split := i == ipaddr.NybbleCount ||
			classify(i) != classify(start) ||
			(classify(start) && i-start >= 2) ||
			(!classify(start) && i-start >= 8)
		if split {
			segments = append(segments, segment{start: start, end: i})
			start = i
		}
	}
	for si := range segments {
		s := &segments[si]
		counts := make(map[string]int)
		for _, a := range seeds {
			key := make([]byte, 0, s.end-s.start)
			for p := s.start; p < s.end; p++ {
				key = append(key, a.Nybble(p))
			}
			counts[string(key)]++
		}
		for k, c := range counts {
			s.values = append(s.values, segValue{nybbles: []byte(k), count: c})
		}
		sort.Slice(s.values, func(i, j int) bool {
			if s.values[i].count != s.values[j].count {
				return s.values[i].count > s.values[j].count
			}
			return string(s.values[i].nybbles) < string(s.values[j].nybbles)
		})
		if len(s.values) > maxSegmentValues {
			s.values = s.values[:maxSegmentValues]
		}
		total := 0
		for _, v := range s.values {
			total += v.count
		}
		s.cum = make([]float64, len(s.values))
		run := 0.0
		for i, v := range s.values {
			run += float64(v.count) / float64(total)
			s.cum[i] = run
		}
	}
	return &model{segments: segments}
}

// randomSeeds draws n canonical seeds whose positions are each constant,
// near-constant (one value in about 19 of 20 seeds, so below the entropy
// threshold) or spread over a few values. Near-constant runs make
// 8-nybble segments holding many values, most of them seen once.
func randomSeeds(rng *rand.Rand, n int) []ipaddr.Addr {
	var kind [ipaddr.NybbleCount]int
	var base [ipaddr.NybbleCount]byte
	for p := range kind {
		kind[p] = rng.Intn(3)
		base[p] = byte(rng.Intn(16))
	}
	out := make([]ipaddr.Addr, n)
	for i := range out {
		var a ipaddr.Addr
		for p := range kind {
			v := base[p]
			switch {
			case kind[p] == 1 && rng.Intn(20) == 0:
				v = byte(rng.Intn(16))
			case kind[p] == 2:
				v = byte(rng.Intn(2 + p%6))
			}
			a = a.WithNybble(p, v)
		}
		out[i] = a
	}
	return ipaddr.DedupSorted(tga.CanonicalSeeds(out))
}

// TestPackedCountsMatchStringCounts holds BuildModel to the string-keyed
// reference over random seed sets: the same segments, values, counts,
// order and cumulative probabilities. The sets must include 8-nybble
// segments of several values and values tied on count.
func TestPackedCountsMatchStringCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var wide, tied int
	for trial := 0; trial < 300; trial++ {
		seeds := randomSeeds(rng, 1+rng.Intn(600))
		m, err := New().BuildModel(seeds)
		if err != nil {
			t.Fatal(err)
		}
		want := refBuildModel(seeds)
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("trial %d (%d seeds): packed counting mined\n%+v\nstring counting\n%+v", trial, len(seeds), m, want)
		}
		for _, s := range want.segments {
			if s.end-s.start == maxSegmentNybbles && len(s.values) > 1 {
				wide++
			}
			for i := 1; i < len(s.values); i++ {
				if s.values[i].count == s.values[i-1].count {
					tied++
					break
				}
			}
		}
	}
	if wide == 0 || tied == 0 {
		t.Fatalf("%d 8-nybble segments of several values and %d segments with tied counts, want both", wide, tied)
	}
}
