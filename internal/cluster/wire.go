package cluster

// The cluster wire protocol: length-prefixed binary frames over TCP,
// stdlib only. A connection carries exactly one conversation:
//
//	coordinator → worker   hello, then job, then shards (one at a time)
//	worker → coordinator   hello, then per shard: beats, finally a result
//	                       (or an error frame)
//
// Every frame is   | type u8 | length u32 | payload |   (big-endian), and
// the first frame in each direction must be a hello carrying the protocol
// magic and version, so both ends fail fast against strangers and future
// incompatible revisions. Integers are big-endian throughout; addresses
// travel as their 16 raw bytes; stats as the 7 counters of
// scanner.Stats.Values in declaration order. A result frame carries one
// result per target of its shard frame, in shard-target order; each
// echoes its address so the coordinator can verify the order it merges by.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/wire"
)

// wireMagic and wireVersion gate the handshake. Bump the version on any
// incompatible change to the frame layout or to what a frame promises:
// version 2 made "results arrive in shard-target order" protocol (a
// version 1 worker re-planned each shard), and version 3 made the job
// frame carry the wire chain (a version 2 worker would probe bare).
var wireMagic = [4]byte{'S', 'S', 'C', 'W'}

const wireVersion = 3

// Frame types.
const (
	msgHello byte = iota + 1
	msgJob
	msgShard
	msgBeat
	msgResult
	msgError
)

// maxFrame bounds a frame payload (64 MiB ≈ 3.7M targets per shard) so a
// corrupt or hostile length prefix cannot drive allocation.
const maxFrame = 64 << 20

// framer reads and writes frames on one connection. Reads are single-
// threaded (the protocol is half-duplex per shard); writes take a mutex
// because a worker's heartbeat goroutine writes concurrently with the
// serve loop.
type framer struct {
	conn io.ReadWriter
	wmu  sync.Mutex
	lenb [5]byte
}

func newFramer(conn io.ReadWriter) *framer { return &framer{conn: conn} }

// write sends one frame.
func (f *framer) write(typ byte, payload []byte) error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := f.conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := f.conn.Write(payload)
	return err
}

// read returns the next frame.
func (f *framer) read() (byte, []byte, error) {
	if _, err := io.ReadFull(f.conn, f.lenb[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(f.lenb[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f.conn, payload); err != nil {
		return 0, nil, err
	}
	return f.lenb[0], payload, nil
}

// --- hello ---

func encodeHello(workerID string) []byte {
	b := make([]byte, 0, 7+len(workerID))
	b = append(b, wireMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, wireVersion)
	b = append(b, byte(len(workerID)))
	return append(b, workerID...)
}

func decodeHello(b []byte) (workerID string, err error) {
	if len(b) < 7 {
		return "", fmt.Errorf("cluster: short hello (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != wireMagic {
		return "", fmt.Errorf("cluster: bad protocol magic %q", b[:4])
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != wireVersion {
		return "", fmt.Errorf("cluster: protocol version %d, want %d", v, wireVersion)
	}
	n := int(b[6])
	if len(b) < 7+n {
		return "", fmt.Errorf("cluster: truncated hello id")
	}
	return string(b[7 : 7+n]), nil
}

// --- job ---

// jobFixed is the job frame's fixed-width head; the chain's canonical
// text fills the rest of the frame.
const jobFixed = 19

func encodeJob(j Job) []byte {
	b := make([]byte, 0, jobFixed+len(j.Chain))
	b = append(b, byte(j.Proto))
	b = binary.BigEndian.AppendUint64(b, j.Secret)
	b = binary.BigEndian.AppendUint16(b, uint16(j.Retries))
	b = binary.BigEndian.AppendUint32(b, uint32(j.RatePPS))
	b = binary.BigEndian.AppendUint32(b, uint32(j.HeartbeatEvery/time.Millisecond))
	return append(b, j.Chain...)
}

func decodeJob(b []byte) (Job, error) {
	if len(b) < jobFixed {
		return Job{}, fmt.Errorf("cluster: job frame is %d bytes, want at least %d", len(b), jobFixed)
	}
	j := Job{
		Proto:          proto.Protocol(b[0]),
		Secret:         binary.BigEndian.Uint64(b[1:9]),
		Retries:        int(binary.BigEndian.Uint16(b[9:11])),
		RatePPS:        int(binary.BigEndian.Uint32(b[11:15])),
		HeartbeatEvery: time.Duration(binary.BigEndian.Uint32(b[15:19])) * time.Millisecond,
		Chain:          string(b[jobFixed:]),
	}
	// Only canonical text: both ends then provably build the same chain.
	if c, err := wire.ParseChainConfig(j.Chain, 0); err != nil {
		return Job{}, fmt.Errorf("cluster: job: %w", err)
	} else if c.String() != j.Chain {
		return Job{}, fmt.Errorf("cluster: job chain %q is not canonical (%q)", j.Chain, c.String())
	}
	return j, nil
}

// --- shard ---

func encodeShard(s Shard) []byte {
	b := make([]byte, 0, 8+16*len(s.Targets))
	b = binary.BigEndian.AppendUint32(b, uint32(s.ID))
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Targets)))
	for _, a := range s.Targets {
		a16 := a.As16()
		b = append(b, a16[:]...)
	}
	return b
}

func decodeShard(b []byte) (Shard, error) {
	if len(b) < 8 {
		return Shard{}, fmt.Errorf("cluster: short shard frame")
	}
	n := int(binary.BigEndian.Uint32(b[4:8]))
	if len(b) != 8+16*n {
		return Shard{}, fmt.Errorf("cluster: shard frame is %d bytes, want %d for %d targets", len(b), 8+16*n, n)
	}
	s := Shard{ID: int(binary.BigEndian.Uint32(b[:4])), Targets: make([]ipaddr.Addr, n)}
	for i := 0; i < n; i++ {
		s.Targets[i] = ipaddr.AddrFrom16([16]byte(b[8+16*i : 24+16*i]))
	}
	return s, nil
}

// --- beat ---

func encodeBeat(shardID, done int) []byte {
	b := make([]byte, 0, 8)
	b = binary.BigEndian.AppendUint32(b, uint32(shardID))
	return binary.BigEndian.AppendUint32(b, uint32(done))
}

func decodeBeat(b []byte) (shardID, done int, err error) {
	if len(b) != 8 {
		return 0, 0, fmt.Errorf("cluster: beat frame is %d bytes, want 8", len(b))
	}
	return int(binary.BigEndian.Uint32(b[:4])), int(binary.BigEndian.Uint32(b[4:8])), nil
}

// --- result ---

// perResult is the wire size of one scanner.Result: 16 address bytes +
// status + attempts. The protocol is carried by the job, not repeated.
const perResult = 18

func encodeResult(r *ShardResult) []byte {
	b := make([]byte, 0, 8+perResult*len(r.Results)+7*8+8)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Shard))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Results)))
	for _, res := range r.Results {
		a16 := res.Addr.As16()
		b = append(b, a16[:]...)
		b = append(b, byte(res.Status), res.Attempts)
	}
	for _, v := range r.Stats.Values() {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return binary.BigEndian.AppendUint64(b, math.Float64bits(r.WallSeconds))
}

// decodeResult decodes a result frame, its results appended to dst[:0]:
// in dst's memory when it has room, in a fresh slice otherwise.
func decodeResult(b []byte, p proto.Protocol, dst []scanner.Result) (*ShardResult, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("cluster: short result frame")
	}
	n := int(binary.BigEndian.Uint32(b[4:8]))
	want := 8 + perResult*n + 7*8 + 8
	if len(b) != want {
		return nil, fmt.Errorf("cluster: result frame is %d bytes, want %d for %d results", len(b), want, n)
	}
	r := &ShardResult{
		Shard:   int(binary.BigEndian.Uint32(b[:4])),
		Results: slices.Grow(dst[:0], n)[:n],
	}
	off := 8
	for i := 0; i < n; i++ {
		r.Results[i] = scanner.Result{
			Addr:     ipaddr.AddrFrom16([16]byte(b[off : off+16])),
			Proto:    p,
			Status:   scanner.Status(b[off+16]),
			Attempts: b[off+17],
		}
		off += perResult
	}
	var vals [7]int64
	for i := range vals {
		vals[i] = int64(binary.BigEndian.Uint64(b[off : off+8]))
		off += 8
	}
	r.Stats = scanner.StatsFromValues(vals)
	r.WallSeconds = math.Float64frombits(binary.BigEndian.Uint64(b[off : off+8]))
	return r, nil
}

// --- error ---

func encodeError(err error) []byte { return []byte(err.Error()) }

func decodeError(b []byte) error { return fmt.Errorf("cluster: worker error: %s", b) }
