package cluster

import (
	"context"
	"fmt"
	"net"
	"time"
)

// RemoteWorker drives one `seedscan worker` process over the wire
// protocol. It implements Worker: each RunShard ships the shard's targets,
// relays the worker's heartbeats into the coordinator's lease clock, and
// decodes the result frame into the shard's Dst.
//
// The connection is re-established lazily after any failure, so a worker
// process that restarts keeps serving later shards — the coordinator's
// lease machinery covers the gap in between.
type RemoteWorker struct {
	addr        string
	id          string
	dialTimeout time.Duration

	// Connection state, guarded by the coordinator's one-lease-per-worker
	// discipline: RunShard is never called concurrently on one worker.
	conn    net.Conn
	fr      *framer
	jobSent bool
	lastJob Job
}

// DialWorker connects to a worker process and performs the handshake,
// learning the worker's self-declared ID. The address doubles as an ID
// prefix so two workers announcing the same name stay distinguishable.
func DialWorker(addr string) (*RemoteWorker, error) {
	w := &RemoteWorker{addr: addr, dialTimeout: 10 * time.Second}
	if err := w.connect(); err != nil {
		return nil, err
	}
	return w, nil
}

// ID implements Worker.
func (w *RemoteWorker) ID() string { return w.id }

// Addr returns the worker's dial address.
func (w *RemoteWorker) Addr() string { return w.addr }

// Close tears down the connection.
func (w *RemoteWorker) Close() error {
	if w.conn == nil {
		return nil
	}
	err := w.conn.Close()
	w.conn = nil
	w.fr = nil
	w.jobSent = false
	return err
}

// connect dials and handshakes.
func (w *RemoteWorker) connect() error {
	conn, err := net.DialTimeout("tcp", w.addr, w.dialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: dial worker %s: %w", w.addr, err)
	}
	fr := newFramer(conn)
	if err := fr.write(msgHello, encodeHello("")); err != nil {
		conn.Close()
		return err
	}
	conn.SetReadDeadline(time.Now().Add(w.dialTimeout))
	typ, payload, err := fr.read()
	if err != nil {
		conn.Close()
		return fmt.Errorf("cluster: handshake with %s: %w", w.addr, err)
	}
	conn.SetReadDeadline(time.Time{})
	if typ != msgHello {
		conn.Close()
		return fmt.Errorf("cluster: handshake with %s: frame type %d, want hello", w.addr, typ)
	}
	name, err := decodeHello(payload)
	if err != nil {
		conn.Close()
		return err
	}
	w.conn = conn
	w.fr = fr
	w.jobSent = false
	if w.id == "" {
		w.id = name + "@" + w.addr
	}
	return nil
}

// RunShard implements Worker over the wire.
func (w *RemoteWorker) RunShard(ctx context.Context, job Job, shard Shard, beat func(done int)) (res *ShardResult, err error) {
	if w.conn == nil {
		if err := w.connect(); err != nil {
			return nil, err
		}
	}
	// Any protocol error poisons the half-duplex conversation: drop the
	// connection so the next lease starts clean.
	defer func() {
		if err != nil {
			w.Close()
		}
	}()

	// A cancelled lease pokes the blocked read via the deadline. The
	// watcher holds its own reference to the conn so the deferred Close
	// above can never nil it out from under the poke, and RunShard waits
	// for it: the coordinator cancels every lease once done, and a late
	// poke would fail the next shard's read on this connection.
	watchDone, watched := make(chan struct{}), make(chan struct{})
	defer func() {
		close(watchDone)
		<-watched
	}()
	go func(conn net.Conn) {
		defer close(watched)
		select {
		case <-ctx.Done():
			conn.SetReadDeadline(time.Now())
		case <-watchDone:
		}
	}(w.conn)

	if !w.jobSent || job != w.lastJob {
		if err := w.fr.write(msgJob, encodeJob(job)); err != nil {
			return nil, err
		}
		w.jobSent = true
		w.lastJob = job
	}
	if err := w.fr.write(msgShard, encodeShard(shard)); err != nil {
		return nil, err
	}

	// The worker beats every job.HeartbeatEvery; three missed beats in a
	// row means the far side is gone regardless of the lease clock.
	patience := 3 * job.HeartbeatEvery
	if patience <= 0 {
		patience = 30 * time.Second
	}
	for {
		w.conn.SetReadDeadline(time.Now().Add(patience))
		typ, payload, err := w.fr.read()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		switch typ {
		case msgBeat:
			_, done, err := decodeBeat(payload)
			if err != nil {
				return nil, err
			}
			beat(done)
		case msgResult:
			w.conn.SetReadDeadline(time.Time{})
			return decodeResult(payload, job.Proto, shard.Dst)
		case msgError:
			return nil, decodeError(payload)
		default:
			return nil, fmt.Errorf("cluster: unexpected frame type %d from worker", typ)
		}
	}
}
