package wire

import (
	"sync"
	"sync/atomic"

	"seedscan/internal/probe"
	"seedscan/internal/telemetry"
)

// FaultsConfig configures deterministic fault injection. Each probability
// is in [0, 1] and applies independently per probe.
type FaultsConfig struct {
	// Seed keys every fault draw. Two runs with the same seed over the
	// same packets make identical decisions.
	Seed uint64
	// Loss drops the probe before it reaches the inner link.
	Loss float64
	// Dupe sends the probe twice; the duplicate's reply is discarded
	// (the scanner contract allows at most one reply per probe).
	Dupe float64
	// Delay delivers the probe but loses the reply — a response arriving
	// after the attempt window, indistinguishable from loss to the
	// scanner but visible to the world (and to any tap inside this
	// middleware).
	Delay float64
}

// Faults injects seeded, reproducible packet-level faults for robustness
// testing: probe loss, probe duplication, and reply delay. Every decision
// is a pure function of (seed, probe bytes) — no shared RNG stream — so
// decisions do not depend on worker interleaving, runs reproduce exactly
// across processes and resumes, and retries genuinely re-roll (the scanner
// folds the attempt number into a wire field, so a retry is a different
// byte string).
//
// Telemetry: wire.faults.dropped, wire.faults.duplicated,
// wire.faults.delayed.
type Faults struct {
	cfg     FaultsConfig
	scratch sync.Pool // *faultScratch

	dropped    atomic.Int64
	duplicated atomic.Int64

	cDropped    *telemetry.Counter
	cDuplicated *telemetry.Counter
	cDelayed    *telemetry.Counter
}

// faultScratch is the per-exchange state: the forwarded packet subset, the
// original index each forwarded slot answers (duplicates map to -1), the
// delayed flag per original index, and the inner reply buffer.
type faultScratch struct {
	fwd     [][]byte
	origIdx []int
	delay   []bool
	rb      probe.ReplyBuf
}

// NewFaults builds a fault injector.
func NewFaults(cfg FaultsConfig) *Faults { return newFaults(cfg, nil) }

// newFaults builds a fault injector mirroring its counters into reg (nil:
// off).
func newFaults(cfg FaultsConfig, reg *telemetry.Registry) *Faults {
	return &Faults{
		cfg:         cfg,
		cDropped:    reg.Counter("wire.faults.dropped"),
		cDuplicated: reg.Counter("wire.faults.duplicated"),
		cDelayed:    reg.Counter("wire.faults.delayed"),
	}
}

// Dropped returns how many probes were lost.
func (f *Faults) Dropped() int64 { return f.dropped.Load() }

// Duplicated returns how many probes were sent twice.
func (f *Faults) Duplicated() int64 { return f.duplicated.Load() }

// Wrap implements Middleware. Faults is a filtering middleware: it
// forwards the surviving packet subset through its own scratch ReplyBuf,
// then resets the caller's rb and copies the surviving replies back under
// their original indices.
func (f *Faults) Wrap(next Link) Link {
	return LinkFunc(func(pkts [][]byte, rb *probe.ReplyBuf) {
		st, _ := f.scratch.Get().(*faultScratch)
		if st == nil {
			st = &faultScratch{}
		}
		st.fwd = st.fwd[:0]
		st.origIdx = st.origIdx[:0]
		st.delay = st.delay[:0]

		var nDrop, nDupe, nDelay int64
		for i, pkt := range pkts {
			h := hashBytes(f.cfg.Seed, pkt)
			// Three independent draws from one hash: re-mix per fault
			// class so the loss and dupe decisions are uncorrelated.
			lost := frac(wiresmix(h^1)) < f.cfg.Loss
			duped := frac(wiresmix(h^2)) < f.cfg.Dupe
			late := frac(wiresmix(h^3)) < f.cfg.Delay
			st.delay = append(st.delay, late)
			if lost {
				nDrop++
				continue
			}
			st.fwd = append(st.fwd, pkt)
			st.origIdx = append(st.origIdx, i)
			if duped {
				nDupe++
				st.fwd = append(st.fwd, pkt)
				st.origIdx = append(st.origIdx, -1)
			}
		}

		next.ExchangeBatchInto(st.fwd, &st.rb)

		rb.Reset(len(pkts))
		for k, orig := range st.origIdx {
			if orig < 0 {
				continue // a duplicate's reply: discarded
			}
			reply := st.rb.Reply(k)
			if reply == nil {
				continue
			}
			if st.delay[orig] {
				nDelay++
				continue
			}
			rb.PutRaw(orig, reply)
		}

		f.dropped.Add(nDrop)
		f.duplicated.Add(nDupe)
		f.cDropped.Add(nDrop)
		f.cDuplicated.Add(nDupe)
		f.cDelayed.Add(nDelay)
		f.scratch.Put(st)
	})
}
