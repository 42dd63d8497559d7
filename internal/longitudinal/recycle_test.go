package longitudinal

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"seedscan/internal/hitlistdb"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
)

// recycledDaemonDigest is the digest of TestRecyclingLeavesDaemonDigest's
// reports and final hitlist with recycling off (go test -tags poison,
// SEEDSCAN_RECYCLE=off).
const recycledDaemonDigest = "22e6557537e583539b2aad067fa7f1d598c23eba0ae105a42cf0c62f604283dd"

// TestRecyclingLeavesDaemonDigest runs the daemon for four epochs through
// a real scanner, whose call scratch every epoch's scans recycle. Its
// per-epoch reports and last published hitlist must hash to the digest of
// a run with recycling off; under the poison tag every recycled value
// arrives scribbled.
func TestRecyclingLeavesDaemonDigest(t *testing.T) {
	w, corpus := testCorpus(t, 42)
	pub, err := hitlistdb.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		World: w, Prober: scanner.New(w.Link(), scanner.WithSecret(9)), Corpus: corpus, Proto: proto.ICMP,
		startEpoch: 1, Epochs: 4, StaleAfter: 2, StableEvery: 3, Fingerprint: "test-env", Publish: pub,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", normalize(reps))
	db := pub.Current()
	fmt.Fprintf(h, "generation %d epoch %d addrs %d prefixes %d\n", db.Generation(), db.Epoch(), db.AddrCount(), db.PrefixCount())
	for _, a := range corpus {
		e, ok := db.Lookup(a)
		fmt.Fprintf(h, "%v %v %+v\n", a, ok, e)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != recycledDaemonDigest {
		t.Fatalf("daemon digest %s, want %s (recycling off)", got, recycledDaemonDigest)
	}
}
