package main

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"seedscan/internal/ipaddr"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
)

// wireOpts carries the shared wire-layer flags: every probing subcommand
// (scan, worker, daemon) can compose taps, pacing, source rotation, and
// fault injection onto its link without the command knowing how the chain
// is built. Middleware order is fixed — tap outermost (it observes what
// the scanner sees), then shaper, then source rotation, with fault
// injection innermost (so the tap still counts probes the faults drop).
type wireOpts struct {
	taps   *bool
	shape  *string
	rotate *string
	faults *string
}

// wireFlags wires the shared -wire-* flags into fs.
func wireFlags(fs *flag.FlagSet) *wireOpts {
	return &wireOpts{
		taps:   fs.Bool("wire-taps", false, "attach a counting wire tap and print probe/reply totals on exit"),
		shape:  fs.String("wire-shape", "", "virtual egress pacing, e.g. pps=100000,jitter=0.2[,seed=N]"),
		rotate: fs.String("wire-rotate", "", "rotate probe source addresses across this comma-separated pool"),
		faults: fs.String("wire-faults", "", "deterministic fault injection, e.g. loss=0.05,dup=0.01,delay=0.02[,seed=N]"),
	}
}

// wireChain is a built middleware stack plus handles to the pieces worth
// reporting on after a run.
type wireChain struct {
	mws    []wire.Middleware
	tap    *wire.Tap
	shaper *wire.Shaper
	faults *wire.Faults
}

// empty reports whether no -wire-* flag asked for anything.
func (o *wireOpts) empty() bool {
	return !*o.taps && *o.shape == "" && *o.rotate == "" && *o.faults == ""
}

// build assembles the middleware chain. seed defaults the deterministic
// knobs (rotation, faults, jitter) when their flag value carries no
// explicit seed=, so a whole run is reproducible from the world seed
// alone. reg may be nil.
func (o *wireOpts) build(seed uint64, reg *telemetry.Registry) (*wireChain, error) {
	c := &wireChain{}
	if *o.taps {
		c.tap = wire.NewTap(nil)
		c.tap.SetTelemetry(reg)
		c.mws = append(c.mws, c.tap)
	}
	if *o.shape != "" {
		sc, err := parseShape(*o.shape, seed)
		if err != nil {
			return nil, err
		}
		c.shaper = wire.NewShaper(sc.pps, sc.jitter, sc.seed)
		c.shaper.SetTelemetry(reg)
		c.mws = append(c.mws, c.shaper)
	}
	if *o.rotate != "" {
		var pool []ipaddr.Addr
		for _, f := range strings.Split(*o.rotate, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			a, err := ipaddr.Parse(f)
			if err != nil {
				return nil, fmt.Errorf("-wire-rotate: %w", err)
			}
			pool = append(pool, a)
		}
		rot, err := wire.NewSourceRotator(seed, pool...)
		if err != nil {
			return nil, fmt.Errorf("-wire-rotate: %w", err)
		}
		rot.SetTelemetry(reg)
		c.mws = append(c.mws, rot)
	}
	if *o.faults != "" {
		cfg, err := parseFaults(*o.faults, seed)
		if err != nil {
			return nil, err
		}
		f := wire.NewFaults(cfg)
		f.SetTelemetry(reg)
		c.faults = f
		c.mws = append(c.mws, f)
	}
	return c, nil
}

// summary prints what the chain observed, one line per attached piece.
func (c *wireChain) summary() {
	if c == nil {
		return
	}
	if c.tap != nil {
		fmt.Printf("wire tap: %d probes, %d replies\n", c.tap.Probes(), c.tap.Replies())
	}
	if c.shaper != nil {
		fmt.Printf("wire shaper: %d packets, %.2fs virtual egress time\n",
			c.shaper.Packets(), c.shaper.VirtualElapsed())
	}
	if c.faults != nil {
		fmt.Printf("wire faults: %d dropped, %d duplicated, %d delayed\n",
			c.faults.Dropped(), c.faults.Duplicated(), c.faults.Delayed())
	}
}

// shapeConfig is a parsed -wire-shape payload.
type shapeConfig struct {
	pps    int
	jitter float64
	seed   uint64
}

// parseShape parses -wire-shape: pps at least 1, jitter in [0,1], and seed
// defaulting to def.
func parseShape(s string, def uint64) (shapeConfig, error) {
	kv, err := parseWireKV("wire-shape", s, "pps", "jitter", "seed")
	if err != nil {
		return shapeConfig{}, err
	}
	// The upper bound keeps the conversion to int defined.
	pps := kv.num("pps", 0)
	if pps < 1 || pps >= math.MaxInt {
		return shapeConfig{}, fmt.Errorf("-wire-shape: pps=%v out of [1,%d)", pps, math.MaxInt)
	}
	if err := kv.fractions("wire-shape", "jitter"); err != nil {
		return shapeConfig{}, err
	}
	return shapeConfig{pps: int(pps), jitter: kv.num("jitter", 0), seed: kv.seedOr(def)}, nil
}

// parseFaults parses -wire-faults: loss, dup and delay in [0,1], and seed
// defaulting to def.
func parseFaults(s string, def uint64) (wire.FaultsConfig, error) {
	kv, err := parseWireKV("wire-faults", s, "loss", "dup", "delay", "seed")
	if err != nil {
		return wire.FaultsConfig{}, err
	}
	if err := kv.fractions("wire-faults", "loss", "dup", "delay"); err != nil {
		return wire.FaultsConfig{}, err
	}
	return wire.FaultsConfig{
		Seed:  kv.seedOr(def),
		Loss:  kv.num("loss", 0),
		Dupe:  kv.num("dup", 0),
		Delay: kv.num("delay", 0),
	}, nil
}

// wireKV is a parsed key=value flag payload: seed= as an unsigned integer,
// so every uint64 seed is expressible exactly, and every other key as a
// finite number.
type wireKV struct {
	nums    map[string]float64
	seed    uint64
	hasSeed bool
}

// parseWireKV parses "k=v,k=v" flag syntax, rejecting unknown keys; a
// repeated key keeps its last value.
func parseWireKV(flagName, s string, allowed ...string) (wireKV, error) {
	ok := map[string]bool{}
	for _, k := range allowed {
		ok[k] = true
	}
	kv := wireKV{nums: map[string]float64{}}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		k, v, found := strings.Cut(f, "=")
		if !found || !ok[k] {
			return wireKV{}, fmt.Errorf("-%s: bad field %q (want %s)", flagName, f, strings.Join(allowed, "=,")+"=")
		}
		if k == "seed" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return wireKV{}, fmt.Errorf("-%s: seed: %w", flagName, err)
			}
			kv.seed, kv.hasSeed = n, true
			continue
		}
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return wireKV{}, fmt.Errorf("-%s: %s: %w", flagName, k, err)
		}
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return wireKV{}, fmt.Errorf("-%s: %s=%v is not a finite number", flagName, k, n)
		}
		kv.nums[k] = n
	}
	return kv, nil
}

func (kv wireKV) num(k string, def float64) float64 {
	if v, found := kv.nums[k]; found {
		return v
	}
	return def
}

// fractions checks that each of keys, where given, lies in [0,1].
func (kv wireKV) fractions(flagName string, keys ...string) error {
	for _, k := range keys {
		if v := kv.num(k, 0); v < 0 || v > 1 {
			return fmt.Errorf("-%s: %s=%v out of [0,1]", flagName, k, v)
		}
	}
	return nil
}

// seedOr returns the payload's explicit seed= or the fallback.
func (kv wireKV) seedOr(def uint64) uint64 {
	if kv.hasSeed {
		return kv.seed
	}
	return def
}
