package hitlistdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"seedscan/internal/hitlist"
	"seedscan/internal/ipaddr"
	"seedscan/internal/telemetry"
)

// smallSnapshot builds a tiny synthetic snapshot whose responsive count is
// n, cheap enough to publish many generations in a loop.
func smallSnapshot(n int) *hitlist.Snapshot {
	snap := &hitlist.Snapshot{
		BuiltAt:    time.Unix(0, int64(n)),
		Input:      n,
		Responsive: ipaddr.NewSet(),
	}
	base := ipaddr.MustParse("2001:db8::")
	for i := 0; i < n; i++ {
		snap.Responsive.Add(base.AddLo(uint64(i)))
	}
	return snap
}

func TestStorePublishAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Current() != nil || st.Generation() != 0 {
		t.Fatal("fresh store is not empty")
	}

	db, err := st.Publish(smallSnapshot(10))
	if err != nil {
		t.Fatal(err)
	}
	if db.Generation() != 1 || st.Generation() != 1 {
		t.Fatalf("first publish generation = %d", db.Generation())
	}
	if st.Current() != db {
		t.Fatal("Current does not return the published DB")
	}

	db2, err := st.Publish(smallSnapshot(20))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Generation() != 2 {
		t.Fatalf("second publish generation = %d", db2.Generation())
	}
	// The old DB stays fully usable after the swap.
	if db.AddrCount() != 10 || db2.AddrCount() != 20 {
		t.Fatal("generations mixed up")
	}

	// A fresh open of the same directory resumes at the latest generation.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Generation() != 2 || st2.Current().AddrCount() != 20 {
		t.Fatalf("reopen landed on generation %d", st2.Generation())
	}
	// ...and continues the numbering rather than restarting it.
	db3, err := st2.Publish(smallSnapshot(30))
	if err != nil {
		t.Fatal(err)
	}
	if db3.Generation() != 3 {
		t.Fatalf("post-reopen publish generation = %d", db3.Generation())
	}
}

// TestStoreRefreshPicksUpExternalPublish models the serve-daemon deployment:
// one store publishes, a second store watching the same directory swaps in
// the new generation on Refresh.
func TestStoreRefreshPicksUpExternalPublish(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	if _, swapped, err := reader.Refresh(); err != nil || swapped {
		t.Fatalf("refresh on empty store: swapped=%v err=%v", swapped, err)
	}

	if _, err := writer.Publish(smallSnapshot(5)); err != nil {
		t.Fatal(err)
	}
	db, swapped, err := reader.Refresh()
	if err != nil || !swapped {
		t.Fatalf("refresh after publish: swapped=%v err=%v", swapped, err)
	}
	if db.Generation() != 1 || db.AddrCount() != 5 {
		t.Fatal("refresh loaded the wrong generation")
	}
	// No change → no swap.
	if _, swapped, _ := reader.Refresh(); swapped {
		t.Fatal("refresh swapped with no new publish")
	}
}

func TestStorePrune(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, KeepGenerations(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := st.Publish(smallSnapshot(i)); err != nil {
			t.Fatal(err)
		}
	}
	var kept []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".hldb" {
			kept = append(kept, e.Name())
		}
	}
	if len(kept) != 2 {
		t.Fatalf("kept %v, want generations 4 and 5 only", kept)
	}
	for _, want := range []string{genFile(4), genFile(5)} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("%s pruned: %v", want, err)
		}
	}
}

// TestStoreManifestMetadata pins the additive build-metadata fields: a
// publish must mirror the data file's epoch, build time, and record counts
// into the manifest, and a minimal pre-epoch manifest must still parse.
func TestStoreManifestMetadata(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := smallSnapshot(4)
	snap.Epoch = 9
	db, err := st.Publish(snap)
	if err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 9 {
		t.Fatalf("published DB epoch = %d, want 9", db.Epoch())
	}
	m, err := st.readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 9 || m.Addrs != 4 || m.Prefixes != 0 ||
		m.BuiltUnixNano != snap.BuiltAt.UnixNano() {
		t.Fatalf("manifest metadata = %+v", m)
	}

	// A manifest without the metadata fields (written by an older publisher)
	// still opens; the fields just read as zero.
	old := fmt.Sprintf(`{"schema":%q,"generation":1,"file":%q}`, manifestSchema, genFile(1))
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("pre-epoch manifest rejected: %v", err)
	}
	if st2.Generation() != 1 {
		t.Fatalf("pre-epoch manifest landed on generation %d", st2.Generation())
	}
}

func TestStoreRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(smallSnapshot(3)); err != nil {
		t.Fatal(err)
	}

	for name, body := range map[string]string{
		"not json":       "{",
		"wrong schema":   `{"schema":"other/v9","generation":1,"file":"gen-00000001.hldb"}`,
		"path traversal": `{"schema":"seedscan-hitlistdb/v1","generation":1,"file":"../evil.hldb"}`,
		"no file":        `{"schema":"seedscan-hitlistdb/v1","generation":1,"file":""}`,
		"the store dir":  `{"schema":"seedscan-hitlistdb/v1","generation":1,"file":"."}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir); err == nil {
			t.Fatalf("%s manifest accepted", name)
		}
	}
}

// TestStoreSwapUnderReaders hammers Current from many goroutines while a
// writer publishes generations; run under -race this is the core atomicity
// proof for the storage layer. Every observed DB must be internally
// consistent: its record count must match what its generation published.
func TestStoreSwapUnderReaders(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	st, err := OpenStore(dir, StoreTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(smallSnapshot(1)); err != nil {
		t.Fatal(err)
	}

	const generations = 20
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				db := st.Current()
				// Generation g was published from smallSnapshot(g): the
				// invariant ties the two header fields of one file together,
				// so a torn swap would trip it.
				if got, want := db.AddrCount(), int(db.Generation()); got != want {
					select {
					case errs <- fmt.Errorf("generation %d has %d records", db.Generation(), got):
					default:
					}
					return
				}
				if _, ok := db.Lookup(ipaddr.MustParse("2001:db8::")); !ok {
					select {
					case errs <- fmt.Errorf("generation %d lost its first record", db.Generation()):
					default:
					}
					return
				}
			}
		}()
	}
	for g := 2; g <= generations; g++ {
		if _, err := st.Publish(smallSnapshot(g)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if st.Generation() != generations {
		t.Fatalf("final generation = %d", st.Generation())
	}
}
