package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seedscan/internal/hitlistdb"
	"seedscan/internal/serve"
	"seedscan/internal/telemetry"
)

func TestCmdBuildDB(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := append([]string{"-dir", dir}, smallEnv...)
	if err := execute(context.Background(), "build-db", args...); err != nil {
		t.Fatal(err)
	}
	st, err := hitlistdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := st.Current()
	if db == nil || db.Generation() != 1 || db.AddrCount() == 0 {
		t.Fatalf("build-db published nothing usable: %+v", db)
	}

	// A second build publishes generation 2.
	if err := execute(context.Background(), "build-db", args...); err != nil {
		t.Fatal(err)
	}
	if _, swapped, err := st.Refresh(); err != nil || !swapped {
		t.Fatalf("refresh after rebuild: swapped=%v err=%v", swapped, err)
	}
	if st.Generation() != 2 {
		t.Fatalf("generation after rebuild = %d", st.Generation())
	}
}

// TestRunServeEndToEnd drives the daemon loop the way cmdServe does:
// build-db publishes, runServe serves, a watch tick picks up a second
// publish, and context cancellation shuts the daemon down cleanly.
func TestRunServeEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := execute(context.Background(), "build-db", append([]string{"-dir", dir}, smallEnv...)...); err != nil {
		t.Fatal(err)
	}

	// Daemon's own store handle (the watch target)...
	st, err := hitlistdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(st)
	if err != nil {
		t.Fatal(err)
	}
	// ...and an independent writer handle, as in a real deployment.
	writer, err := hitlistdb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, addr, srv, st, 20*time.Millisecond) }()

	base := "http://" + addr
	waitGeneration(t, base, 1)

	if _, err := writer.Publish(st.Current().Snapshot()); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, base, 2)

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe exited with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runServe did not shut down")
	}
}

// waitGeneration polls healthz until the daemon serves generation want.
func waitGeneration(t *testing.T, base string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			var body struct {
				Generation uint64 `json:"generation"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil && body.Generation == want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon never served generation %d", want)
}

// TestRunServeListenFailureStopsWatcher is the regression test for the
// -watch goroutine leak: when ListenAndServe fails immediately (port in
// use), runServe returns an error, and the refresh ticker must die with
// it instead of polling until the parent context is cancelled. The store's
// refresh counter is the watcher's observable heartbeat. Run under -race.
func TestRunServeListenFailureStopsWatcher(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := execute(context.Background(), "build-db", append([]string{"-dir", dir}, smallEnv...)...); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	st, err := hitlistdb.OpenStore(dir, hitlistdb.StoreTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(st)
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the port so ListenAndServe fails at once.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The parent context stays live: only runServe's return may stop the
	// watcher.
	const watch = 5 * time.Millisecond
	err = runServe(context.Background(), ln.Addr().String(), srv, st, watch)
	if err == nil {
		t.Fatal("runServe succeeded on an occupied port")
	}

	refreshes := func() int64 { return reg.Snapshot().Counters["hitlistdb.store.refreshes"] }
	// Let any leaked ticker fire many times; the count must settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		before := refreshes()
		time.Sleep(20 * watch)
		if refreshes() == before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("watch goroutine still refreshing after runServe returned")
		}
	}
}

// TestRunServeClosesStalledHeaders pins the daemon's connection bounds: a
// client that opens a connection and never finishes its request headers
// is cut off by the server once serveReadHeaderTimeout passes, and while
// it stalls a well-behaved client is still answered.
func TestRunServeClosesStalledHeaders(t *testing.T) {
	st, err := hitlistdb.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(st)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, addr, srv, st, 0) }()
	waitGeneration(t, "http://"+addr, 0)

	// Headers without the terminating blank line: the request never starts.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	if _, err := io.WriteString(stalled, "GET /v1/healthz HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz beside a stalled connection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz beside a stalled connection: status %d", resp.StatusCode)
	}

	// The server, not this deadline, must end the stalled connection.
	stalled.SetReadDeadline(start.Add(serveReadHeaderTimeout + 5*time.Second))
	if _, err := io.Copy(io.Discard, stalled); err != nil {
		t.Fatalf("stalled connection still open %v after its last byte: %v", time.Since(start), err)
	}
	if held := time.Since(start); held < serveReadHeaderTimeout/2 {
		t.Fatalf("stalled connection closed after %v, before the %v header timeout", held, serveReadHeaderTimeout)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServe exited with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runServe did not shut down")
	}
}

func TestCmdServeBadDir(t *testing.T) {
	// A file where the store directory should be must fail fast.
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := execute(context.Background(), "serve", "-dir", f); err == nil {
		t.Fatal("serve accepted a non-directory store")
	}
}
