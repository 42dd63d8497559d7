package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"seedscan/cmd/internal/profile"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/longitudinal"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
)

// cmdDaemon runs the longitudinal scanning service: it re-scans a budgeted,
// volatility-prioritized slice of the seed universe as the world's epoch
// clock advances, confirms stale seeds with a cool-down, and publishes each
// epoch's believed-alive view as a new hitlistdb generation — the producer
// half of a live pipeline whose consumer is `seedscan serve -watch`.
//
// Epoch scans are checkpointed as grid cells under -state, so a killed
// daemon re-run with the same flags replays completed epochs byte-identically
// and resumes scanning where it died, without re-publishing generations the
// store already has.
func cmdDaemon(fs *flag.FlagSet) body {
	seed, ases, scale := envFlags(fs)
	p := profile.Var(fs, "proto", "icmp", "probing protocol: icmp, tcp80, tcp443, udp53", proto.Parse)
	epochs := profile.AtLeast(fs, "epochs", 5, 1, "consecutive epochs to run")
	budget := profile.AtLeast(fs, "budget", 0, 0, "probe budget per epoch (0 = unlimited)")
	staleAfter := profile.AtLeast(fs, "stale-after", longitudinal.DefaultStaleAfter, 1, "consecutive down observations confirming an address stale")
	stableEvery := profile.AtLeast(fs, "stable-every", longitudinal.DefaultStableEvery, 1, "stable-host refresh period in epochs (1 = full re-scan)")
	alpha := profile.Positive(fs, "alpha", longitudinal.DefaultAlpha, 1, "volatility EWMA weight of the newest observation")
	state := fs.String("state", "daemon-state", "checkpoint directory; re-running resumes from it")
	publish := fs.String("publish", "hitlistdb", "hitlistdb store directory to publish each epoch into (empty disables publishing)")
	keep := profile.AtLeast(fs, "keep", 3, 1, "published generation files to retain on disk")
	wireFlags := wire.ChainFlags(fs)
	return func(ctx context.Context, tr *telemetry.Tracer) error {
		// The chain's faults enter env.Fingerprint, so -state checkpoints
		// written under other faults, or none, are never replayed.
		env := buildEnv(*seed, *ases, *scale, tr, wireFlags(*seed))

		if err := os.MkdirAll(*state, 0o755); err != nil {
			return err
		}
		store, err := grid.OpenJSONL(filepath.Join(*state, "cells.jsonl"))
		if err != nil {
			return err
		}
		defer store.Close()

		var pub *hitlistdb.Store
		if *publish != "" {
			pub, err = hitlistdb.OpenStore(*publish,
				hitlistdb.KeepGenerations(*keep),
				hitlistdb.StoreTelemetry(tr.Registry()))
			if err != nil {
				return err
			}
		}

		d, err := longitudinal.New(longitudinal.Config{
			World:           env.World,
			Prober:          env.Prober,
			Corpus:          env.Full.SortedSlice(),
			Proto:           *p,
			Epochs:          *epochs,
			Budget:          *budget,
			StaleAfter:      *staleAfter,
			StableEvery:     *stableEvery,
			Alpha:           *alpha,
			Fingerprint:     env.Fingerprint(),
			Store:           store,
			Publish:         pub,
			AliasedPrefixes: env.Offline.Prefixes(),
			Telemetry:       tr,
		})
		if err != nil {
			return err
		}
		fmt.Printf("daemon: %d-address universe, %d epochs, %s, stale-after %d, stable-every %d (resumed %d cells from %s)\n",
			len(d.Universe()), *epochs, *p, *staleAfter, *stableEvery, store.Len(), *state)

		reps, runErr := d.Run(ctx)
		totalProbed, totalSaved := 0, 0
		for _, r := range reps {
			totalProbed += r.Probed
			totalSaved += r.Saved
			fmt.Printf("epoch %d: probed %d (new %d, pending %d, volatile %d, refresh %d; saved %d) hits %d flaps %d stale %d alive %d",
				r.Epoch, r.Probed, r.New, r.PendingStale, r.Volatile, r.StableRefresh, r.Saved,
				r.Hits, r.Flaps, r.ConfirmedStale, r.Alive)
			if r.Generation > 0 {
				fmt.Printf(" gen %d", r.Generation)
			}
			fmt.Printf(" [%s]\n", r.Duration.Round(time.Millisecond))
		}
		if runErr != nil {
			return fmt.Errorf("daemon: %w (completed %d epochs; re-run to resume)", runErr, len(reps))
		}
		live := d.LiveSeeds()
		fmt.Printf("done: %d probes sent, %d saved vs full re-scan; %d seeds live, %d confirmed stale\n",
			totalProbed, totalSaved, len(live), len(d.Tracker().ConfirmedStale()))
		wireSummary(tr.Registry())
		return nil
	}
}
