package wire_test

import (
	"flag"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
)

// TestChainConfigBuild pins Build: the zero config is the bare link
// itself, and a full config composes in the documented order — faults
// innermost, so the tap, shaper and rotator all see every probe sent —
// and mirrors each piece's counters into the registry.
func TestChainConfigBuild(t *testing.T) {
	w, targets := testWorld(t)
	if base := w.Link(); (wire.ChainConfig{}).Build(base, nil) != wire.Link(base) {
		t.Fatal("zero ChainConfig did not build the bare link itself")
	}
	c := wire.ChainConfig{
		Taps:   true,
		Shape:  wire.ShapeConfig{PPS: 100000, Jitter: 0.5, Seed: 9},
		Rotate: wire.RotateConfig{Seed: 9, Pool: []ipaddr.Addr{ipaddr.MustParse("2001:db8:feed::1"), ipaddr.MustParse("2001:db8:feed::2")}},
		Faults: wire.FaultsConfig{Loss: 0.3, Seed: 9},
	}
	reg := telemetry.NewRegistry()
	_, stats := scanThrough(c.Build(w.Link(), reg), targets, proto.ICMP)
	snap := reg.Snapshot()
	if snap.Counters["wire.tap.probes"] != stats[0] || snap.Counters["wire.shaper.packets"] != stats[0] {
		t.Fatalf("tap saw %d and shaper %d probes, scanner sent %d",
			snap.Counters["wire.tap.probes"], snap.Counters["wire.shaper.packets"], stats[0])
	}
	if snap.Counters["wire.rotator.rewrites"] != stats[0] || snap.Counters["wire.faults.dropped"] == 0 {
		t.Fatalf("rotator rewrote %d of %d probes before faults dropped %d",
			snap.Counters["wire.rotator.rewrites"], stats[0], snap.Counters["wire.faults.dropped"])
	}
	if v := float64(snap.Counters["wire.shaper.virtual_ns"]) / 1e9; v < float64(stats[0])/100000 {
		t.Fatalf("shaper virtual time %.4fs below %d packets at 100k pps", v, stats[0])
	}
}

// TestChainConfigFingerprint: without faults the fingerprint is empty —
// taps, shaping and rotation are transparent, and all-zero faults inject
// nothing. With faults, each fault knob moves it, and so does rotation,
// since faults draw from the rewritten packets.
func TestChainConfigFingerprint(t *testing.T) {
	pool := []ipaddr.Addr{ipaddr.MustParse("2001:db8::1")}
	other := []ipaddr.Addr{ipaddr.MustParse("2001:db8::2"), ipaddr.MustParse("2001:db8::3")}
	for _, c := range []wire.ChainConfig{
		{},
		{Taps: true},
		{Shape: wire.ShapeConfig{PPS: 10, Jitter: 0.5, Seed: 3}},
		{Rotate: wire.RotateConfig{Seed: 4, Pool: pool}},
		{Faults: wire.FaultsConfig{Seed: 5}},
	} {
		if fp := c.Fingerprint(); fp != "" {
			t.Errorf("%q has fingerprint %q", c, fp)
		}
	}
	base := wire.FaultsConfig{Seed: 1, Loss: 0.1, Dupe: 0.1, Delay: 0.1}
	seen := map[string]bool{}
	for _, c := range []wire.ChainConfig{
		{Faults: base},
		{Faults: wire.FaultsConfig{Seed: 1, Loss: 0.2, Dupe: 0.1, Delay: 0.1}},
		{Faults: wire.FaultsConfig{Seed: 1, Loss: 0.1, Dupe: 0.2, Delay: 0.1}},
		{Faults: wire.FaultsConfig{Seed: 1, Loss: 0.1, Dupe: 0.1, Delay: 0.2}},
		{Faults: wire.FaultsConfig{Seed: 2, Loss: 0.1, Dupe: 0.1, Delay: 0.1}},
		{Faults: base, Rotate: wire.RotateConfig{Seed: 4, Pool: pool}},
		{Faults: base, Rotate: wire.RotateConfig{Seed: 4, Pool: other}},
		{Faults: base, Rotate: wire.RotateConfig{Seed: 5, Pool: other}},
	} {
		c.Taps = true
		fp := c.Fingerprint()
		if fp == "" || seen[fp] {
			t.Errorf("%q: fingerprint %q empty or shared", c, fp)
		}
		seen[fp] = true
	}
	for _, s := range []string{"faults loss=0", "faults seed=5", "faults loss=0.3; faults dup=0"} {
		if c, err := chainFlags(s, 1); err != nil || !reflect.DeepEqual(c, wire.ChainConfig{}) {
			t.Errorf("%q parses to %+v (%v), want the zero chain", s, c, err)
		}
	}
}

// TestChainFlags: fs.Parse refuses a -wire-* section that does not parse,
// and the seed the returned func is given fills every seed= the flags
// leave out, whatever the flag order; an explicit seed= stays.
func TestChainFlags(t *testing.T) {
	fs := flag.NewFlagSet("wire", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	chain := wire.ChainFlags(fs)
	if err := fs.Parse([]string{"-wire-faults", "loss=2"}); err == nil {
		t.Fatal("-wire-faults loss=2 parsed")
	}
	if err := fs.Parse([]string{"-wire-faults", "loss=0.1", "-wire-shape", "pps=100,seed=9", "-wire-taps"}); err != nil {
		t.Fatal(err)
	}
	want := wire.ChainConfig{Taps: true, Shape: wire.ShapeConfig{PPS: 100, Seed: 9}, Faults: wire.FaultsConfig{Loss: 0.1, Seed: 7}}
	if c := chain(7); !reflect.DeepEqual(c, want) {
		t.Fatalf("chain(7) = %+v, want %+v", c, want)
	}
}

// chainFlags reads chain text through ChainFlags, as a command line
// gives it: each ";"-separated section "name payload" is the flag
// -wire-name=payload ("taps" is -wire-taps), and seed fills every seed=
// left out. A repeated section keeps its last value, as a repeated flag
// does.
func chainFlags(text string, seed uint64) (wire.ChainConfig, error) {
	fs := flag.NewFlagSet("wire", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	chain := wire.ChainFlags(fs)
	var args []string
	for _, sec := range strings.Split(text, ";") {
		if sec = strings.TrimSpace(sec); sec == "" {
			continue
		}
		name, payload, _ := strings.Cut(sec, " ")
		if name == "taps" && payload == "" {
			args = append(args, "-wire-taps")
			continue
		}
		args = append(args, "-wire-"+name+"="+payload)
	}
	if err := fs.Parse(args); err != nil {
		return wire.ChainConfig{}, err
	}
	return chain(seed), nil
}

// FuzzParseChainConfig feeds the -wire-* section parser (ChainFlags) text
// a user typed. Read as a -wire-shape or -wire-faults payload, whatever it
// accepts lies in range and an explicit seed= reaches the config exactly
// as typed. Read as a whole chain, one flag per section, whatever it
// accepts prints as canonical text that reads back through the flags to
// the same config under any default seed.
func FuzzParseChainConfig(f *testing.F) {
	f.Add("pps=100000,jitter=0.2", uint64(7))
	f.Add("loss=0.05,dup=0.01,delay=0.02", uint64(1<<53+1))
	f.Add("loss=1,jitter=0", uint64(math.MaxUint64))
	f.Add("taps; shape pps=5e4,jitter=0.1; rotate seed=5,2001:db8::1,::ffff:192.0.2.1; faults loss=0.05,dup=-0", uint64(42))
	f.Fuzz(func(t *testing.T, s string, seed uint64) {
		const def = 42
		check := func(in string, wantSeed uint64) {
			if c, err := chainFlags("shape "+in, def); err == nil {
				if sc := c.Shape; sc.PPS < 1 || !(sc.Jitter >= 0 && sc.Jitter <= 1) || sc.Seed != wantSeed {
					t.Fatalf("shape %q = %+v, want pps >= 1, jitter in [0,1], seed %d", in, sc, wantSeed)
				}
			}
			if c, err := chainFlags("faults "+in, def); err == nil {
				fc := c.Faults
				for _, p := range []float64{fc.Loss, fc.Dupe, fc.Delay} {
					if !(p >= 0 && p <= 1) {
						t.Fatalf("faults %q = %+v, want probabilities in [0,1]", in, fc)
					}
				}
				if fc != (wire.FaultsConfig{}) && fc.Seed != wantSeed {
					t.Fatalf("faults %q seed = %d, want %d", in, fc.Seed, wantSeed)
				}
			}
		}
		if !strings.Contains(s, ";") {
			check(s+",seed="+strconv.FormatUint(seed, 10), seed)
			if !strings.Contains(s, "seed") {
				check(s, def)
			}
		}

		c, err := chainFlags(s, seed)
		if err != nil {
			return
		}
		text := c.String()
		again, err := chainFlags(text, ^seed)
		if err != nil || !reflect.DeepEqual(again, c) || again.String() != text {
			t.Fatalf("%q parses to %+v, prints as %q, reads back as %+v (%v)", s, c, text, again, err)
		}
		if (c.Fingerprint() == "") != (c.Faults == wire.FaultsConfig{}) {
			t.Fatalf("%q: fingerprint %q disagrees with faults %+v", s, c.Fingerprint(), c.Faults)
		}
	})
}
