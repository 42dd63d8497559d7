package wire

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"seedscan/internal/ipaddr"
	"seedscan/internal/telemetry"
)

// ChainConfig is a middleware chain as a value: the one description that
// CLI flags parse into and experiment fingerprints read. Build composes
// it in a fixed order: Tap outermost (it sees what the scanner sees),
// then shaper, then sourceRotator, and Faults innermost (so the tap still
// counts the probes faults drop). The zero value is the bare link.
type ChainConfig struct {
	Taps   bool         // a count-only Tap
	Shape  ShapeConfig  // PPS 0 leaves the shaper out
	Rotate RotateConfig // an empty Pool leaves the sourceRotator out
	Faults FaultsConfig // no probability above zero leaves Faults out
}

// ShapeConfig configures a shaper: PPS packets per second, and Jitter in
// [0, 1] as the maximum per-batch extra delay in units of one inter-packet
// gap, drawn from Seed.
type ShapeConfig struct {
	PPS    int
	Jitter float64
	Seed   uint64
}

// RotateConfig configures a sourceRotator: Seed keys which Pool address
// the probes to each destination leave from.
type RotateConfig struct {
	Seed uint64
	Pool []ipaddr.Addr
}

// injects reports whether f can fault a probe: a probability above zero.
// Otherwise the seed decides nothing and the chain leaves Faults out.
func (f FaultsConfig) injects() bool { return f.Loss > 0 || f.Dupe > 0 || f.Delay > 0 }

// Build composes the chain onto link, each middleware mirroring its
// counters into reg (nil: off). The zero config returns link itself.
func (c ChainConfig) Build(link Link, reg *telemetry.Registry) Link {
	var mws []Middleware
	if c.Taps {
		mws = append(mws, newTap(nil, reg))
	}
	if c.Shape.PPS > 0 {
		mws = append(mws, newShaper(c.Shape, reg))
	}
	if len(c.Rotate.Pool) > 0 {
		mws = append(mws, newSourceRotator(c.Rotate, reg))
	}
	if c.Faults.injects() {
		mws = append(mws, newFaults(c.Faults, reg))
	}
	return Chain(link, mws...)
}

// Fingerprint is the part of the chain that changes scan outcomes, for
// content addresses: empty unless faults are set. Taps and shaping never
// touch a packet, so they stay out. Rotation alone is transparent too, but
// Faults draws from the bytes the rotator rewrote (source and checksum),
// so with faults set the fingerprint is the canonical text of the rotate
// and faults sections.
func (c ChainConfig) Fingerprint() string {
	if !c.Faults.injects() {
		return ""
	}
	return ChainConfig{Rotate: c.Rotate, Faults: c.Faults}.String()
}

// String is the chain's canonical text: "; "-separated sections in Build
// order, every value and seed explicit, so ParseChainConfig(c.String(), s)
// returns c for any s and any c that ParseChainConfig returned.
func (c ChainConfig) String() string {
	var secs []string
	if c.Taps {
		secs = append(secs, "taps")
	}
	if s := c.Shape; s.PPS > 0 {
		secs = append(secs, fmt.Sprintf("shape pps=%d,jitter=%s,seed=%d", s.PPS, num(s.Jitter), s.Seed))
	}
	if r := c.Rotate; len(r.Pool) > 0 {
		sec := "rotate seed=" + strconv.FormatUint(r.Seed, 10)
		for _, a := range r.Pool {
			sec += "," + a.String()
		}
		secs = append(secs, sec)
	}
	if f := c.Faults; f.injects() {
		secs = append(secs, fmt.Sprintf("faults loss=%s,dup=%s,delay=%s,seed=%d", num(f.Loss), num(f.Dupe), num(f.Delay), f.Seed))
	}
	return strings.Join(secs, "; ")
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseChainConfig parses String's text: sections separated by ";", each
// a name and its payload — "taps", "shape pps=N,jitter=J[,seed=S]",
// "rotate [seed=S,]addr,addr,..." and "faults loss=P,dup=P,delay=P[,seed=S]"
// — in any order; a repeated section or key keeps its last value. seed
// fills every seed= left out.
func ParseChainConfig(s string, seed uint64) (ChainConfig, error) {
	var c ChainConfig
	for _, sec := range strings.Split(s, ";") {
		if sec = strings.TrimSpace(sec); sec != "" {
			name, payload, _ := strings.Cut(sec, " ")
			if err := c.set(name, payload, seed); err != nil {
				return ChainConfig{}, fmt.Errorf("wire: chain %w", err)
			}
		}
	}
	return c, nil
}

// ChainFlags defines the -wire-taps, -wire-shape, -wire-rotate and
// -wire-faults flags on fs, one per section, each parsed by fs.Parse. The
// returned func, called after fs.Parse, reads them as a ChainConfig; seed
// fills every seed= they leave out, so a run is reproducible from one seed.
func ChainFlags(fs *flag.FlagSet) func(seed uint64) ChainConfig {
	taps := fs.Bool("wire-taps", false, "attach a counting wire tap and print probe/reply totals on exit")
	secs := []*sectionFlag{{name: "shape"}, {name: "rotate"}, {name: "faults"}}
	fs.Var(secs[0], "wire-shape", "virtual egress pacing, e.g. pps=100000,jitter=0.2[,seed=N]")
	fs.Var(secs[1], "wire-rotate", "rotate probe source addresses across this comma-separated pool[,seed=N]")
	fs.Var(secs[2], "wire-faults", "deterministic fault injection, e.g. loss=0.05,dup=0.01,delay=0.02[,seed=N]")
	return func(seed uint64) ChainConfig {
		c := ChainConfig{Taps: *taps}
		for _, sec := range secs {
			if sec.text != "" {
				c.set(sec.name, sec.text, seed) // Set parsed it already
			}
		}
		return c
	}
}

// A sectionFlag is one -wire-* section's text, which Set parses.
type sectionFlag struct{ name, text string }

func (f *sectionFlag) String() string { return f.text }
func (f *sectionFlag) Get() any       { return f.text }
func (f *sectionFlag) Set(v string) error {
	if f.text = v; v == "" {
		return nil
	}
	return new(ChainConfig).set(f.name, v, 0)
}

// sectionKeys lists each section's payload keys; rotate also takes bare
// pool addresses.
var sectionKeys = map[string][]string{
	"taps":   {},
	"shape":  {"pps", "jitter", "seed"},
	"rotate": {"seed"},
	"faults": {"loss", "dup", "delay", "seed"},
}

// set parses one section's comma-separated payload into c. seed= is an
// unsigned integer, so every uint64 seed is exact; pps lies in [1,2^53],
// where whole numbers convert to int and print back exactly (a fraction
// truncates), and every other key in [0,1]. Errors start with the section
// name.
func (c *ChainConfig) set(name, payload string, seed uint64) error {
	keys, ok := sectionKeys[name]
	if !ok {
		return fmt.Errorf("section %q unknown (want taps, shape, rotate or faults)", name)
	}
	nums := map[string]float64{}
	var pool []ipaddr.Addr
	for _, f := range strings.Split(payload, ",") {
		f = strings.TrimSpace(f)
		k, v, found := strings.Cut(f, "=")
		switch {
		case f == "":
		case !found && name == "rotate":
			a, err := ipaddr.Parse(f)
			if err != nil {
				return fmt.Errorf("rotate: %w", err)
			}
			pool = append(pool, a)
		case !found || !slices.Contains(keys, k):
			return fmt.Errorf("%s: bad field %q (keys %q)", name, f, keys)
		case k == "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("%s: seed: %w", name, err)
			}
			seed = n
		default:
			lo, hi := 0.0, 1.0
			if k == "pps" {
				lo, hi = 1, 1<<53
			}
			n, err := strconv.ParseFloat(v, 64)
			if err != nil || !(n >= lo && n <= hi) { // NaN fails both
				return fmt.Errorf("%s: %s=%s is not a number in [%v,%v]", name, k, v, lo, hi)
			}
			nums[k] = math.Abs(n) // -0 reads as 0, so String has one spelling
		}
	}
	switch name {
	case "taps":
		c.Taps = true
	case "shape":
		if nums["pps"] == 0 {
			return errors.New("shape: pps= missing")
		}
		c.Shape = ShapeConfig{PPS: int(nums["pps"]), Jitter: nums["jitter"], Seed: seed}
	case "rotate":
		if len(pool) == 0 {
			return errors.New("rotate: empty source pool")
		}
		c.Rotate = RotateConfig{Seed: seed, Pool: pool}
	case "faults":
		c.Faults = FaultsConfig{Seed: seed, Loss: nums["loss"], Dupe: nums["dup"], Delay: nums["delay"]}
		if !c.Faults.injects() {
			c.Faults = FaultsConfig{} // all-zero faults are no faults
		}
	}
	return nil
}
