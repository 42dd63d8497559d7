package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seedscan/internal/hitlistdb"
	"seedscan/internal/serve"
)

// daemonArgs builds a cmdDaemon invocation over temp state/publish dirs.
func daemonArgs(state, publish string, extra ...string) []string {
	args := append([]string{"-state", state, "-publish", publish, "-epochs", "5", "-keep", "10"}, smallEnv...)
	return append(args, extra...)
}

// TestCmdDaemonServeEndToEnd is the full producer/consumer loop from the
// issue's acceptance bar: the daemon runs five epochs, publishing one
// generation per epoch, while a concurrent serve loop with a short
// -watch interval swaps each one in live.
func TestCmdDaemonServeEndToEnd(t *testing.T) {
	tmp := t.TempDir()
	state := filepath.Join(tmp, "state")
	publish := filepath.Join(tmp, "store")

	// Seed the store with an empty directory and start the watcher first,
	// as a deployment would: serve comes up on 503s, the daemon feeds it.
	st, err := hitlistdb.OpenStore(publish)
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
	go func() { done <- runServe(ctx, addr, srv, st, 20*time.Millisecond) }()

	if err := execute(context.Background(), "daemon", daemonArgs(state, publish)...); err != nil {
		t.Fatal(err)
	}

	// The watcher observes the final generation; healthz reports the
	// epoch the daemon stamped on it.
	base := "http://" + addr
	waitGeneration(t, base, 5)
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Generation uint64  `json:"generation"`
		Epoch      int     `json:"epoch"`
		Age        float64 `json:"generation_age_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Generation != 5 || health.Epoch != 5 {
		t.Fatalf("healthz = %+v, want generation 5 epoch 5", health)
	}
	if health.Age < 0 || health.Age > 600 {
		t.Fatalf("generation age %v implausible", health.Age)
	}

	// One generation per epoch: with -keep 10 all five files survive, each
	// stamped with the epoch that produced it.
	for gen := 1; gen <= 5; gen++ {
		db, err := hitlistdb.Open(filepath.Join(publish, fmt.Sprintf("gen-%08d.hldb", gen)))
		if err != nil {
			t.Fatalf("generation %d not retained: %v", gen, err)
		}
		if db.Epoch() != gen {
			t.Fatalf("generation %d stamped epoch %d", gen, db.Epoch())
		}
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

// TestCmdDaemonResume re-runs cmdDaemon over the same state directory: the
// second run replays every epoch from checkpoints (no new scanner traffic
// is observable here, but no new generations may appear either) and exits
// cleanly.
func TestCmdDaemonResume(t *testing.T) {
	tmp := t.TempDir()
	state := filepath.Join(tmp, "state")
	publish := filepath.Join(tmp, "store")

	if err := execute(context.Background(), "daemon", daemonArgs(state, publish)...); err != nil {
		t.Fatal(err)
	}
	st, err := hitlistdb.OpenStore(publish)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 5 {
		t.Fatalf("first run published generation %d, want 5", st.Generation())
	}

	if err := execute(context.Background(), "daemon", daemonArgs(state, publish)...); err != nil {
		t.Fatal(err)
	}
	if _, swapped, err := st.Refresh(); err != nil {
		t.Fatal(err)
	} else if swapped {
		t.Fatal("resumed run republished generations for replayed epochs")
	}
	if st.Generation() != 5 {
		t.Fatalf("generation after resume = %d, want 5", st.Generation())
	}
}

func TestCmdDaemonBadFlags(t *testing.T) {
	tmp := t.TempDir()
	if err := execute(context.Background(), "daemon", daemonArgs(tmp, "", "-proto", "gopher")...); err == nil {
		t.Fatal("daemon accepted an unknown protocol")
	}
	if err := execute(context.Background(), "daemon", daemonArgs(tmp, "", "-epochs", "0")...); err == nil {
		t.Fatal("daemon accepted zero epochs")
	}
}

// TestCmdDaemonFaultsScanAfresh: faults change scan outcomes, so a faulted
// daemon at the -state of an unfaulted one scans every epoch afresh
// instead of replaying the unfaulted cells, and a faulted re-run replays
// its own cells without storing another.
func TestCmdDaemonFaultsScanAfresh(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	cells := func() []byte {
		b, err := os.ReadFile(filepath.Join(state, "cells.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := execute(context.Background(), "daemon", daemonArgs(state, "")...); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(cells(), []byte("\n")); n != 5 {
		t.Fatalf("unfaulted run stored %d cells, want one per epoch", n)
	}
	faulted := daemonArgs(state, "", "-wire-faults", "loss=0.3")
	if err := execute(context.Background(), "daemon", faulted...); err != nil {
		t.Fatal(err)
	}
	after := cells()
	if n := bytes.Count(after, []byte("\n")); n != 10 {
		t.Fatalf("faulted run left %d cells, want 5 unfaulted + 5 faulted: it replayed unfaulted epochs", n)
	}
	if err := execute(context.Background(), "daemon", faulted...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cells(), after) {
		t.Fatal("faulted re-run stored new cells instead of replaying its own")
	}
	// Faults draw from the rotated packets, so rotation under faults is a
	// different method too.
	if err := execute(context.Background(), "daemon", append(faulted, "-wire-rotate", "2001:db8::1,2001:db8::2")...); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(cells(), []byte("\n")); n != 15 {
		t.Fatalf("faulted rotated run left %d cells, want 15: it replayed the unrotated faulted epochs", n)
	}
}
