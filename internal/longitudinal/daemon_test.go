package longitudinal

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"seedscan/internal/alias"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/world"
)

// oracleProber answers directly from the world's ground truth at its
// current epoch — deterministic and loss-free, so daemon tests can reason
// exactly about recall.
type oracleProber struct{ w *world.World }

func (p oracleProber) ScanActive(targets []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr {
	var hits []ipaddr.Addr
	for _, a := range targets {
		if p.w.ActiveOn(a, pr, p.w.Epoch()) {
			hits = append(hits, a)
		}
	}
	return hits
}

// Scan completes the shared scanner.Prober surface; the daemon scans only
// through the ScanActive side.
func (p oracleProber) Scan(targets []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	out := make([]scanner.Result, len(targets))
	for i, a := range targets {
		st := scanner.StatusSilent
		if p.w.ActiveOn(a, pr, p.w.Epoch()) {
			st = scanner.StatusActive
		}
		out[i] = scanner.Result{Addr: a, Proto: pr, Status: st, Attempts: 1}
	}
	return out
}

// killProber fails the Nth scan call — the moral equivalent of kill -9
// mid-epoch: the interrupted epoch's cell is never checkpointed.
type killProber struct {
	inner  oracleProber
	calls  int
	failAt int
}

func (k *killProber) ScanActive(targets []ipaddr.Addr, pr proto.Protocol) []ipaddr.Addr {
	return k.inner.ScanActive(targets, pr)
}

func (k *killProber) ScanActiveContext(_ context.Context, targets []ipaddr.Addr, pr proto.Protocol) ([]ipaddr.Addr, error) {
	k.calls++
	if k.calls == k.failAt {
		return nil, context.Canceled
	}
	return k.inner.ScanActive(targets, pr), nil
}

// Scan / ScanContext complete the shared prober surfaces; the daemon's
// epoch scans go through ScanActiveContext, where the kill is planted.
func (k *killProber) Scan(targets []ipaddr.Addr, pr proto.Protocol) []scanner.Result {
	return k.inner.Scan(targets, pr)
}

func (k *killProber) ScanContext(ctx context.Context, targets []ipaddr.Addr, pr proto.Protocol) ([]scanner.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return k.inner.Scan(targets, pr), nil
}

// testCorpus collects the union of every seed source from a fresh world.
func testCorpus(t testing.TB, seed uint64) (*world.World, []ipaddr.Addr) {
	t.Helper()
	w := world.New(world.Config{Seed: seed, NumASes: 40, LossRate: 0})
	w.SetEpoch(world.CollectEpoch)
	srcs := seeds.CollectAll(w, seeds.CollectConfig{Seed: 7, Scale: 0.3})
	set := ipaddr.NewSet()
	for _, ds := range srcs {
		set.AddSet(ds.Addrs)
	}
	corpus := set.Sorted()
	if len(corpus) < 500 {
		t.Fatalf("corpus too thin: %d", len(corpus))
	}
	return w, corpus
}

// normalize strips the two fields resume cannot reproduce: wall-clock
// duration and (for replayed epochs) the reported generation.
func normalize(reps []EpochReport) []EpochReport {
	out := append([]EpochReport(nil), reps...)
	for i := range out {
		out[i].Duration = 0
		out[i].Generation = 0
	}
	return out
}

// TestDaemonResumeEquivalence is the tentpole guarantee: a daemon killed
// mid-epoch and restarted over the same checkpoint store reproduces the
// reference run's per-epoch reports exactly, and publishes each epoch's
// generation exactly once.
func TestDaemonResumeEquivalence(t *testing.T) {
	const epochs = 6
	cfg := func(w *world.World, corpus []ipaddr.Addr, p scanner.Prober, st grid.Store, pub *hitlistdb.Store) Config {
		return Config{
			World: w, Prober: p, Corpus: corpus, Proto: proto.ICMP,
			startEpoch: 1, Epochs: epochs, StaleAfter: 2, StableEvery: 3,
			Fingerprint: "test-env", Store: st, Publish: pub,
		}
	}

	// Reference run: fresh everything, no interruption.
	wA, corpus := testCorpus(t, 42)
	pubA, err := hitlistdb.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stA, err := grid.OpenJSONL(filepath.Join(t.TempDir(), "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	dA, err := New(cfg(wA, corpus, oracleProber{wA}, stA, pubA))
	if err != nil {
		t.Fatal(err)
	}
	repsA, err := dA.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(repsA) != epochs {
		t.Fatalf("reference ran %d epochs", len(repsA))
	}

	// Killed run: same seed, its own store and publish dir; the prober
	// dies during the 4th epoch's scan.
	wB, corpusB := testCorpus(t, 42)
	storePath := filepath.Join(t.TempDir(), "cells.jsonl")
	stB1, err := grid.OpenJSONL(storePath)
	if err != nil {
		t.Fatal(err)
	}
	pubDir := t.TempDir()
	pubB1, err := hitlistdb.OpenStore(pubDir)
	if err != nil {
		t.Fatal(err)
	}
	dB1, err := New(cfg(wB, corpusB, &killProber{inner: oracleProber{wB}, failAt: 4}, stB1, pubB1))
	if err != nil {
		t.Fatal(err)
	}
	partial, err := dB1.Run(context.Background())
	if err == nil {
		t.Fatal("killed run did not fail")
	}
	if len(partial) != 3 {
		t.Fatalf("killed run completed %d epochs, want 3", len(partial))
	}
	if stB1.Len() != 3 {
		t.Fatalf("store holds %d cells after kill, want 3", stB1.Len())
	}
	stB1.Close()

	// Resumed run: a fresh daemon over the same store and publish dir
	// replays epochs 1-3 from checkpoints and scans 4-6 live.
	stB2, err := grid.OpenJSONL(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer stB2.Close()
	pubB2, err := hitlistdb.OpenStore(pubDir)
	if err != nil {
		t.Fatal(err)
	}
	wB2, corpusB2 := testCorpus(t, 42)
	dB2, err := New(cfg(wB2, corpusB2, oracleProber{wB2}, stB2, pubB2))
	if err != nil {
		t.Fatal(err)
	}
	repsB, err := dB2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(normalize(repsA), normalize(repsB)) {
		t.Fatalf("resumed reports diverge from reference:\nA: %+v\nB: %+v", normalize(repsA), normalize(repsB))
	}
	if stB2.Len() != epochs {
		t.Fatalf("store holds %d cells after resume, want %d", stB2.Len(), epochs)
	}

	// Publish idempotence: one generation per epoch across kill+restart,
	// each stamped with its epoch; no spurious re-publishes of 1-3.
	for _, pub := range []*hitlistdb.Store{pubA, pubB2} {
		db := pub.Current()
		if db == nil || db.Generation() != epochs || db.Epoch() != epochs {
			t.Fatalf("final generation/epoch = %v", db)
		}
	}

	// The prioritized scheduler actually saves probes once state warms up.
	saved := 0
	for _, r := range repsA[1:] {
		saved += r.Saved
	}
	if saved == 0 {
		t.Fatal("no probes saved across warmed-up epochs")
	}
}

// TestDaemonStaleRecall pins the headline trade: volatility-prioritized
// scheduling probes strictly fewer addresses than full re-scanning while
// confirming the same true deaths (recall no worse), measured against the
// world's ground truth.
func TestDaemonStaleRecall(t *testing.T) {
	const (
		startEpoch  = 1
		epochs      = 10
		staleAfter  = 2
		stableEvery = 3
	)
	run := func(stableEveryCfg int) (*Daemon, []EpochReport, int) {
		w, corpus := testCorpus(t, 5)
		d, err := New(Config{
			World: w, Prober: oracleProber{w}, Corpus: corpus, Proto: proto.ICMP,
			startEpoch: startEpoch, Epochs: epochs,
			StaleAfter: staleAfter, StableEvery: stableEveryCfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		probes := 0
		for _, r := range reps {
			probes += r.Probed
		}
		return d, reps, probes
	}

	// StableEvery=1 degenerates the scheduler into a full re-scan: every
	// non-stale address is probed every epoch.
	prio, _, prioProbes := run(stableEvery)
	full, _, fullProbes := run(1)

	if prioProbes >= fullProbes {
		t.Fatalf("prioritized used %d probes, full re-scan %d", prioProbes, fullProbes)
	}

	// Ground truth: corpus addresses active at the start epoch but down at
	// every epoch from the cutoff on — deaths old enough that both
	// schedulers had time to confirm them (rotation lag + confirmation).
	w, corpus := testCorpus(t, 5)
	cutoff := startEpoch + epochs - 1 - (stableEvery - 1) - staleAfter
	trueDead := ipaddr.NewSet()
	for _, a := range corpus {
		if !w.ActiveOn(a, proto.ICMP, startEpoch) {
			continue
		}
		dead := true
		for e := cutoff; e < startEpoch+epochs; e++ {
			if w.ActiveOn(a, proto.ICMP, e) {
				dead = false
				break
			}
		}
		if dead {
			trueDead.Add(a)
		}
	}
	if trueDead.Len() == 0 {
		t.Fatal("no ground-truth deaths; churn too low for this test to mean anything")
	}

	recall := func(d *Daemon) float64 {
		confirmed := 0
		for _, a := range d.Tracker().ConfirmedStale() {
			if trueDead.Contains(a) {
				confirmed++
			}
		}
		return float64(confirmed) / float64(trueDead.Len())
	}
	rPrio, rFull := recall(prio), recall(full)
	t.Logf("trueDead=%d prio: %d probes recall %.3f; full: %d probes recall %.3f",
		trueDead.Len(), prioProbes, rPrio, fullProbes, rFull)
	if rPrio < rFull {
		t.Fatalf("prioritized recall %.3f below full re-scan %.3f", rPrio, rFull)
	}
	if rPrio < 0.95 {
		t.Fatalf("prioritized recall %.3f; confirmed-stale tracking is broken", rPrio)
	}
}

// TestUniverseWithOverlappingCohorts pins the universe to corpus ∪
// cohorts, sorted and unique, when cohorts repeat corpus members: each
// address is probed once an epoch, so a dead host listed three times
// reads one miss after one epoch, not a stale confirmation.
func TestUniverseWithOverlappingCohorts(t *testing.T) {
	w, corpus := testCorpus(t, 42)
	var dead ipaddr.Addr
	found := false
	for _, a := range corpus {
		if !w.ActiveOn(a, proto.ICMP, 1) {
			dead, found = a, true
			break
		}
	}
	if !found {
		t.Fatal("no corpus address is down at epoch 1")
	}
	n := len(corpus)
	d, err := New(Config{
		World: w, Prober: oracleProber{w}, Corpus: corpus, Proto: proto.ICMP,
		Cohorts: []Cohort{
			{Name: "a", Addrs: []ipaddr.Addr{corpus[n-1], dead, corpus[n/2]}},
			{Name: "b", Addrs: []ipaddr.Addr{corpus[n/2], dead}},
		},
		startEpoch: 1, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := d.Universe()
	for i := 1; i < len(u); i++ {
		if !u[i-1].Less(u[i]) {
			t.Fatalf("universe not sorted and unique at %d: %v, %v", i, u[i-1], u[i])
		}
	}
	if len(u) != n {
		t.Fatalf("universe holds %d addresses, want |corpus ∪ cohorts| = %d", len(u), n)
	}
	reps, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Probed != n {
		t.Fatalf("epoch 1 probed %d, want %d", reps[0].Probed, n)
	}
	st := d.Tracker().state(dead)
	if st == nil || st.Observed != 1 || st.ConsecDown != 1 || st.Stale {
		t.Fatalf("triple-listed dead member after one epoch: %+v, want one miss, not stale", st)
	}
}

// TestEpochReportsStandAlone: each report keeps what its epoch saw. A run
// of several epochs reports epoch k as a run that stops at k does, so no
// later epoch writes into a list an earlier report holds; Alive counts
// the addresses the epoch published; and an epoch with no alias hit
// reports nil alias /96s, also after an epoch that had some.
func TestEpochReportsStandAlone(t *testing.T) {
	const epochs = 4
	run := func(n int, aliased []ipaddr.Prefix) ([]EpochReport, *hitlistdb.Store) {
		w, corpus := testCorpus(t, 42)
		pub, err := hitlistdb.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(Config{
			World: w, Prober: oracleProber{w}, Corpus: corpus, Proto: proto.ICMP,
			startEpoch: 1, Epochs: n, StableEvery: 2, Publish: pub, AliasedPrefixes: aliased,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return reps, pub
	}

	w, corpus := testCorpus(t, 42)
	all, _ := run(epochs, w.AliasedPrefixes())
	var distinct [][]ipaddr.Prefix
	for k := 1; k <= epochs; k++ {
		reps, pub := run(k, w.AliasedPrefixes())
		if got, want := normalize(all[k-1:k]), normalize(reps[k-1:]); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d of a %d-epoch run:\n%+v\nwant, as a %d-epoch run reports it:\n%+v", k, epochs, got, k, want)
		}
		if got, want := reps[k-1].Alive, pub.Current().AddrCount(); got != want {
			t.Fatalf("epoch %d: Alive %d, published %d addresses", k, got, want)
		}
		if p := reps[k-1].AliasPrefixes; !slices.ContainsFunc(distinct, func(q []ipaddr.Prefix) bool { return slices.Equal(p, q) }) {
			distinct = append(distinct, p)
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("every epoch reports the same alias /96s %v; the test cannot tell a report that shares its list", distinct)
	}

	// The known list is the /96 of one host that answers at epoch 1, where
	// no corpus host answers at epoch 2.
	var gone []ipaddr.Prefix
	for _, a := range corpus {
		p := ipaddr.PrefixFrom(a, alias.AliasPrefixBits)
		if w.ActiveOn(a, proto.ICMP, 1) && !w.ActiveOn(a, proto.ICMP, 2) &&
			!slices.ContainsFunc(corpus, func(b ipaddr.Addr) bool { return p.Contains(b) && w.ActiveOn(b, proto.ICMP, 2) }) {
			gone = []ipaddr.Prefix{p}
			break
		}
	}
	if gone == nil {
		t.Fatal("no corpus /96 answers at epoch 1 and is silent at epoch 2")
	}
	reps, _ := run(2, gone)
	if len(reps[0].AliasPrefixes) == 0 || reps[1].AliasPrefixes != nil {
		t.Fatalf("alias /96s %#v then %#v, want %v then nil", reps[0].AliasPrefixes, reps[1].AliasPrefixes, gone)
	}
}
