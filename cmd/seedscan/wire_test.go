package main

import (
	"flag"
	"io"
	"strconv"
	"testing"

	"seedscan/internal/probe"
	"seedscan/internal/wire"
)

// buildWire parses args as the -wire-* flags into a chain; a section
// that does not parse fails fs.Parse.
func buildWire(t *testing.T, args ...string) (wire.ChainConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("wire", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	chain := wire.ChainFlags(fs)
	if err := fs.Parse(args); err != nil {
		return wire.ChainConfig{}, err
	}
	return chain(42), nil
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
		{"-wire-rotate", "seed=3"},
		{"-wire-rotate", "2001:db8::1,fe80::1%eth0"},
	} {
		if _, err := buildWire(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, err := buildWire(t, "-wire-faults", "loss=0.05,dup=0.01,delay=0.02,seed=7", "-wire-shape", "pps=50000,jitter=0.1",
		"-wire-rotate", "2001:db8::1,2001:db8::2,seed=9", "-wire-taps"); err != nil {
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
		c.Build(inner, nil).ExchangeBatchInto(pkts, &probe.ReplyBuf{})
		return got
	}
	a, b := forwarded(1<<53), forwarded(1<<53+1)
	if string(a) == string(b) {
		t.Fatalf("seeds 2^53 and 2^53+1 forward the same %d of %d probes", len(a), len(pkts))
	}
}
