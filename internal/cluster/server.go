package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
	"seedscan/internal/wire"
)

// ServeConfig parameterizes a worker-side protocol server — the process
// behind `seedscan worker`.
type ServeConfig struct {
	// WorkerID names this worker in handshakes and telemetry.
	WorkerID string
	// Link is this worker's wire. Each job frame gets a scanner over the
	// job's chain composed onto Link, so the worker replicates whatever
	// secret, retries, rate and chain the coordinator announces.
	Link wire.Link
	// Options apply to every job's scanner (telemetry...), before the
	// job's own settings.
	Options []scanner.Option
	// Telemetry counts served shards and the job chains' wire.* counters
	// (nil: off).
	Telemetry *telemetry.Registry
	// Logf reports per-connection errors (nil: silent).
	Logf func(format string, args ...any)
}

// Serve accepts coordinator connections on ln until ctx is cancelled,
// handling each connection on its own goroutine. It always returns a
// non-nil reason; after cancellation that reason is ctx.Err().
func Serve(ctx context.Context, ln net.Listener, cfg ServeConfig) error {
	if cfg.Link == nil {
		return errors.New("cluster: ServeConfig.Link is required")
	}
	if cfg.WorkerID == "" {
		cfg.WorkerID = "worker"
	}
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		go func() {
			if err := serveConn(ctx, conn, cfg); err != nil && cfg.Logf != nil {
				cfg.Logf("cluster worker: connection from %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// serveConn speaks the worker side of one coordinator connection.
func serveConn(ctx context.Context, conn net.Conn, cfg ServeConfig) error {
	defer conn.Close()
	fr := newFramer(conn)

	typ, payload, err := fr.read()
	if err != nil {
		return err
	}
	if typ != msgHello {
		return fmt.Errorf("first frame is type %d, want hello", typ)
	}
	if _, err := decodeHello(payload); err != nil {
		return err
	}
	if err := fr.write(msgHello, encodeHello(cfg.WorkerID)); err != nil {
		return err
	}

	var worker *localWorker
	var job Job
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		typ, payload, err := fr.read()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
		switch typ {
		case msgJob:
			if job, err = decodeJob(payload); err != nil {
				return err
			}
			chain, _ := wire.ParseChainConfig(job.chain, 0) // decodeJob checked it
			link := chain.Build(cfg.Link, cfg.Telemetry)
			worker = newLocalWorker(cfg.WorkerID, jobScanner(link, job, cfg.Options))
		case msgShard:
			if worker == nil {
				if err := fr.write(msgError, encodeError(errors.New("shard before job"))); err != nil {
					return err
				}
				continue
			}
			if err := serveShard(ctx, fr, worker, job, payload, cfg.Telemetry); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected frame type %d", typ)
		}
	}
}

// serveShard scans one shard, streaming heartbeats while the scan runs.
func serveShard(ctx context.Context, fr *framer, worker *localWorker, job Job, payload []byte, reg *telemetry.Registry) error {
	sh, err := decodeShard(payload)
	if err != nil {
		return err
	}
	reg.Counter("cluster.serve.shards").Inc()

	// The heartbeat goroutine is the only concurrent writer; the framer's
	// write mutex orders its beats against the final result frame.
	var progress atomic.Int64
	hbCtx, hbStop := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	every := job.heartbeatEvery
	if every <= 0 {
		every = time.Second
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if fr.write(msgBeat, encodeBeat(sh.id, int(progress.Load()))) != nil {
					return
				}
			}
		}
	}()

	res, err := worker.RunShard(ctx, job, sh, func(done int) { progress.Store(int64(done)) })
	hbStop()
	<-hbDone
	if err != nil {
		reg.Counter("cluster.serve.shard_errors").Inc()
		return fr.write(msgError, encodeError(err))
	}
	reg.Counter("cluster.serve.packets_sent").Add(res.stats.PacketsSent.Load())
	return fr.write(msgResult, encodeResult(res))
}
