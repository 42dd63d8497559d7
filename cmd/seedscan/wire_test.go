package main

import (
	"flag"
	"math"
	"strconv"
	"testing"

	"seedscan/internal/probe"
	"seedscan/internal/wire"
)

// buildWire parses args as the -wire-* flags and builds the chain.
func buildWire(t *testing.T, args ...string) (*wireChain, error) {
	t.Helper()
	fs := flag.NewFlagSet("wire", flag.ContinueOnError)
	o := wireFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o.build(42, nil)
}

func TestWireFlagsRejectOutOfRange(t *testing.T) {
	for _, args := range [][]string{
		{"-wire-faults", "loss=NaN"},
		{"-wire-faults", "dup=NaN"},
		{"-wire-faults", "delay=nan"},
		{"-wire-faults", "loss=1.5"},
		{"-wire-faults", "seed=-1"},
		{"-wire-faults", "seed=1.5"},
		{"-wire-faults", "seed=18446744073709551616"},
		{"-wire-shape", "pps=100,jitter=Inf"},
		{"-wire-shape", "pps=100,jitter=NaN"},
		{"-wire-shape", "pps=100,jitter=2"},
		{"-wire-shape", "pps=100,jitter=-0.5"},
		{"-wire-shape", "pps=NaN"},
		{"-wire-shape", "pps=Inf"},
		{"-wire-shape", "pps=1e300"},
		{"-wire-shape", "pps=0.5"},
	} {
		if _, err := buildWire(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, err := buildWire(t, "-wire-faults", "loss=0.05,dup=0.01,delay=0.02,seed=7", "-wire-shape", "pps=50000,jitter=0.1"); err != nil {
		t.Fatal(err)
	}
}

// TestWireFaultsSeedIsExact builds -wire-faults with two seeds a float64
// cannot tell apart (2^53 and 2^53+1) and expects different fault patterns.
func TestWireFaultsSeedIsExact(t *testing.T) {
	pkts := make([][]byte, 64)
	for i := range pkts {
		pkts[i] = []byte{byte(i), 0x5e, 0xed}
	}
	forwarded := func(seed uint64) []byte {
		c, err := buildWire(t, "-wire-faults", "loss=0.5,seed="+strconv.FormatUint(seed, 10))
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		inner := wire.LinkFunc(func(ps [][]byte, rb *probe.ReplyBuf) {
			for _, p := range ps {
				got = append(got, p[0])
			}
			rb.Reset(len(ps))
		})
		c.faults.Wrap(inner).ExchangeBatchInto(pkts, &probe.ReplyBuf{})
		return got
	}
	a, b := forwarded(1<<53), forwarded(1<<53+1)
	if string(a) == string(b) {
		t.Fatalf("seeds 2^53 and 2^53+1 forward the same %d of %d probes", len(a), len(pkts))
	}
}

// FuzzParseWireKV feeds the -wire-shape and -wire-faults parsers text a
// user typed: whatever they accept lies in range, and an explicit seed=
// reaches the chain exactly as typed.
func FuzzParseWireKV(f *testing.F) {
	f.Add("pps=100000,jitter=0.2", uint64(7))
	f.Add("loss=0.05,dup=0.01,delay=0.02", uint64(1<<53+1))
	f.Add("loss=1,jitter=0", uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, s string, seed uint64) {
		const def = 42
		check := func(in string, wantSeed uint64) {
			if sc, err := parseShape(in, def); err == nil {
				if sc.pps < 1 || !(sc.jitter >= 0 && sc.jitter <= 1) || sc.seed != wantSeed {
					t.Fatalf("parseShape(%q) = %+v, want pps >= 1, jitter in [0,1], seed %d", in, sc, wantSeed)
				}
			}
			if fc, err := parseFaults(in, def); err == nil {
				for _, p := range []float64{fc.Loss, fc.Dupe, fc.Delay} {
					if !(p >= 0 && p <= 1) {
						t.Fatalf("parseFaults(%q) = %+v, want probabilities in [0,1]", in, fc)
					}
				}
				if fc.Seed != wantSeed {
					t.Fatalf("parseFaults(%q) seed = %d, want %d", in, fc.Seed, wantSeed)
				}
			}
		}
		typed := s + ",seed=" + strconv.FormatUint(seed, 10)
		check(typed, seed)
		if kv, err := parseWireKV("fuzz", s, "pps", "jitter", "loss", "dup", "delay", "seed"); err == nil && !kv.hasSeed {
			check(s, def)
		}
	})
}
