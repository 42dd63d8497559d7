package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"seedscan/cmd/internal/profile"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/serve"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
)

// cmdBuildDB runs the hitlist pipeline over every seed source and publishes
// the result as the next generation of a hitlistdb store directory — the
// producer half of the hitlist service. Re-running it against the same
// directory publishes a new generation; a concurrent `seedscan serve -watch`
// daemon picks it up without restarting.
func cmdBuildDB(fs *flag.FlagSet) body {
	seed, ases, scale := envFlags(fs)
	dir := fs.String("dir", "hitlistdb", "store directory to publish into")
	keep := profile.AtLeast(fs, "keep", 3, 1, "generation files to retain on disk")
	return func(ctx context.Context, tr *telemetry.Tracer) error {
		snap, err := buildHitlist(ctx, buildEnv(*seed, *ases, *scale, tr, wire.ChainConfig{}), tr.Registry())
		if err != nil {
			return err
		}
		fmt.Print(snap.Summary())

		st, err := hitlistdb.OpenStore(*dir,
			hitlistdb.KeepGenerations(*keep),
			hitlistdb.StoreTelemetry(tr.Registry()))
		if err != nil {
			return err
		}
		db, err := st.Publish(snap)
		if err != nil {
			return err
		}
		fmt.Printf("published generation %d to %s (%d records, %d aliased prefixes, %d bytes)\n",
			db.Generation(), *dir, db.AddrCount(), db.PrefixCount(), len(db.Bytes()))
		return nil
	}
}

// cmdServe runs the hitlist query daemon over a store directory published
// by build-db. With -watch it polls the manifest and atomically swaps in
// new generations while continuing to serve; in-flight requests finish on
// the generation they started on.
func cmdServe(fs *flag.FlagSet) body {
	dir := fs.String("dir", "hitlistdb", "store directory to serve")
	addr := fs.String("addr", "127.0.0.1:8674", "listen address")
	watch := profile.AtLeast(fs, "watch", time.Duration(0), 0, "poll the store for new generations at this interval and swap them in live (0 = off)")
	maxBulk := profile.AtLeast(fs, "max-bulk", 4096, 1, "maximum addresses per /v1/bulk request")
	maxWalk := profile.AtLeast(fs, "max-walk", 65536, 1, "maximum records per /v1/prefix-walk response")
	return func(ctx context.Context, tr *telemetry.Tracer) error {
		st, err := hitlistdb.OpenStore(*dir, hitlistdb.StoreTelemetry(tr.Registry()))
		if err != nil {
			return err
		}
		srv, err := serve.New(st,
			serve.WithTelemetry(tr.Registry()),
			serve.WithMaxBulk(*maxBulk),
			serve.WithMaxWalk(*maxWalk))
		if err != nil {
			return err
		}
		if gen := st.Generation(); gen > 0 {
			fmt.Printf("serving generation %d from %s on %s\n", gen, *dir, *addr)
		} else {
			fmt.Printf("store %s is empty; serving 503s on %s until a build is published\n", *dir, *addr)
		}
		return runServe(ctx, *addr, srv, st, *watch)
	}
}

// Bounds on what one client connection can hold of the daemon. There is
// no WriteTimeout: /v1/snapshot streams whole images, however long the
// client takes to read them.
const (
	// serveReadHeaderTimeout closes a connection whose request headers
	// have not fully arrived in this long (slow-header clients).
	serveReadHeaderTimeout = 5 * time.Second
	// serveIdleTimeout closes a keep-alive connection with no request in
	// flight for this long.
	serveIdleTimeout = 2 * time.Minute
	// serveMaxHeaderBytes caps request line plus headers; queries are an
	// address or a prefix, bulk inputs travel in the body.
	serveMaxHeaderBytes = 16 << 10
)

// runServe is the daemon loop behind cmdServe, split out so tests can drive
// it with their own context and listen address.
func runServe(ctx context.Context, addr string, handler http.Handler, st *hitlistdb.Store, watch time.Duration) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
		MaxHeaderBytes:    serveMaxHeaderBytes,
	}

	// The watcher's lifetime is tied to runServe itself, not the parent
	// context: when ListenAndServe fails immediately (port in use) the
	// ticker goroutine must die with the call, not poll until the caller
	// cancels.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	if watch > 0 {
		go func() {
			tick := time.NewTicker(watch)
			defer tick.Stop()
			for {
				select {
				case <-wctx.Done():
					return
				case <-tick.C:
					if db, swapped, err := st.Refresh(); err != nil {
						fmt.Fprintf(os.Stderr, "refresh: %v\n", err)
					} else if swapped {
						fmt.Printf("swapped in generation %d (%d records)\n", db.Generation(), db.AddrCount())
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
