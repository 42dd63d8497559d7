package hitlistdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/rand"
	"testing"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
)

// refMarshal is the encoder Marshal replaced, kept as the reference its
// bytes are checked against: it unions every set into one, sorts the
// union, and probes every set for every record.
func refMarshal(snap *hitlist.Snapshot, generation uint64) []byte {
	union := ipaddr.NewSetCap(snap.Responsive.Len())
	union.AddSet(snap.Responsive)
	for _, p := range proto.All {
		if snap.PerProtocol[p] != nil {
			union.AddSet(snap.PerProtocol[p])
		}
	}
	addrs := union.Sorted()
	prefixes := dedupPrefixes(snap.AliasedPrefixes)

	var b []byte
	b = append(b, formatMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, formatVersion)
	b = binary.BigEndian.AppendUint16(b, defaultIndexStride)
	b = binary.BigEndian.AppendUint64(b, generation)
	b = binary.BigEndian.AppendUint64(b, uint64(snap.BuiltAt.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(snap.Input))
	b = binary.BigEndian.AppendUint64(b, uint64(snap.AliasedAddrs))
	b = binary.BigEndian.AppendUint64(b, uint64(len(addrs)))
	b = binary.BigEndian.AppendUint64(b, uint64(len(prefixes)))
	b = binary.BigEndian.AppendUint32(b, uint32(snap.Epoch))
	for len(b) < headerSize {
		b = append(b, 0)
	}
	for _, a := range addrs {
		a16 := a.As16()
		b = append(b, a16[:]...)
		var flags byte
		if snap.Responsive.Contains(a) {
			flags |= flagResponsive
		}
		for _, p := range proto.All {
			if snap.PerProtocol[p].Contains(a) {
				flags |= 1 << uint(p)
			}
		}
		b = append(b, flags)
	}
	for _, p := range prefixes {
		a16 := p.Addr().As16()
		b = append(b, a16[:]...)
		b = append(b, byte(p.Bits()))
	}
	for i := 0; i < len(addrs); i += defaultIndexStride {
		a16 := addrs[i].As16()
		b = append(b, a16[:]...)
	}
	return binary.BigEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
}

// daemonSnapshot is the shape the longitudinal daemon publishes: one set
// as Responsive and as one protocol's set, every other protocol's set
// empty.
func daemonSnapshot(alive *ipaddr.Set, prefixes []ipaddr.Prefix) *hitlist.Snapshot {
	snap := &hitlist.Snapshot{
		BuiltAt:         time.Unix(1700000000, 5),
		Epoch:           9,
		Input:           2 * alive.Len(),
		Responsive:      alive,
		AliasedPrefixes: prefixes,
	}
	for _, p := range proto.All {
		snap.PerProtocol[p] = ipaddr.NewSet()
	}
	snap.PerProtocol[proto.ICMP] = alive
	return snap
}

// randomSnapshot draws a snapshot whose slots hold nil sets, empty sets,
// one set in several slots, protocol members outside Responsive, and
// members inserted in no particular order, over a pool small enough that
// the sets overlap.
func randomSnapshot(rng *rand.Rand) *hitlist.Snapshot {
	pool := make([]ipaddr.Addr, 1+rng.Intn(300))
	for i := range pool {
		pool[i] = ipaddr.AddrFrom64s(0x20010db8_00000000+uint64(rng.Intn(4)), uint64(rng.Intn(1000)))
	}
	draw := func() *ipaddr.Set {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return ipaddr.NewSet()
		}
		s := ipaddr.NewSet()
		for range rng.Intn(len(pool) + 1) {
			s.Add(pool[rng.Intn(len(pool))])
		}
		return s
	}
	snap := &hitlist.Snapshot{
		BuiltAt:      time.Unix(0, rng.Int63()),
		Epoch:        rng.Intn(50),
		Input:        rng.Intn(1000),
		AliasedAddrs: rng.Intn(100),
		Responsive:   draw(),
	}
	for _, p := range proto.All {
		switch rng.Intn(3) {
		case 0: // share a set already in another slot
			others := []*ipaddr.Set{snap.Responsive}
			for _, q := range proto.All[:p] {
				others = append(others, snap.PerProtocol[q])
			}
			snap.PerProtocol[p] = others[rng.Intn(len(others))]
		default:
			snap.PerProtocol[p] = draw()
		}
	}
	for range rng.Intn(5) {
		snap.AliasedPrefixes = append(snap.AliasedPrefixes, ipaddr.PrefixFrom(pool[rng.Intn(len(pool))], 64+32*rng.Intn(2)))
	}
	return snap
}

// TestMarshalMatchesReference requires Marshal to write the reference
// encoder's bytes for the pipeline's snapshot, the daemon's shape, and
// random snapshots of every slot pattern.
func TestMarshalMatchesReference(t *testing.T) {
	check := func(name string, snap *hitlist.Snapshot) {
		t.Helper()
		if got, want := Marshal(snap, 3), refMarshal(snap, 3); !bytes.Equal(got, want) {
			t.Fatalf("%s: Marshal wrote %d bytes that differ from the reference's %d", name, len(got), len(want))
		}
	}
	built := buildSnapshot(t)
	check("buildSnapshot", built)
	check("daemon shape", daemonSnapshot(built.Responsive, built.AliasedPrefixes))
	check("empty", &hitlist.Snapshot{})

	rng := rand.New(rand.NewSource(50))
	for i := range 2000 {
		check(fmt.Sprintf("random snapshot %d", i), randomSnapshot(rng))
	}
}
