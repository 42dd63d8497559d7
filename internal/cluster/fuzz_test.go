package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/wire"
)

// Both targets replay the seed corpus under testdata/fuzz/ in every plain
// `go test`; CI fuzzes each for 10 s.

type rawFrame struct {
	typ     byte
	payload []byte
}

// readFrames reads frames from r until the framer gives up, checking the
// bound every accepted frame must respect.
func readFrames(t *testing.T, r io.Reader) ([]rawFrame, error) {
	fr := newFramer(struct {
		io.Reader
		io.Writer
	}{r, io.Discard})
	var frames []rawFrame
	for {
		typ, payload, err := fr.read()
		if err != nil {
			return frames, err
		}
		if len(payload) > maxFrame {
			t.Fatalf("framer accepted a %d-byte payload, limit %d", len(payload), maxFrame)
		}
		frames = append(frames, rawFrame{typ, payload})
	}
}

// FuzzFramerRead feeds the framer a byte stream it did not write — whole,
// one byte per Read, and cut short: it must not panic, must never return
// more payload than arrived, must read the same frames however the stream
// is chunked, and what it read must re-encode to the bytes it consumed.
func FuzzFramerRead(f *testing.F) {
	var two bytes.Buffer
	fr := newFramer(&two)
	fr.write(msgHello, encodeHello("w0"))
	fr.write(msgBeat, encodeBeat(3, 512))
	f.Add(two.Bytes())
	f.Add([]byte{msgError, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		whole, werr := readFrames(t, bytes.NewReader(data))
		if werr == nil {
			t.Fatal("framer read past the end of its input without an error")
		}
		var back bytes.Buffer
		w := newFramer(&back)
		for _, fm := range whole {
			if err := w.write(fm.typ, fm.payload); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.HasPrefix(data, back.Bytes()) {
			t.Fatalf("%d frames re-encode to bytes the input does not start with", len(whole))
		}

		dribbled, derr := readFrames(t, iotest.OneByteReader(bytes.NewReader(data)))
		if len(dribbled) != len(whole) || derr.Error() != werr.Error() {
			t.Fatalf("one byte per read: %d frames then %v; whole: %d frames then %v", len(dribbled), derr, len(whole), werr)
		}
		for i := range whole {
			if dribbled[i].typ != whole[i].typ || !bytes.Equal(dribbled[i].payload, whole[i].payload) {
				t.Fatalf("frame %d differs between one byte per read and whole", i)
			}
		}

		cut, _ := readFrames(t, bytes.NewReader(data[:len(data)/2]))
		if len(cut) > len(whole) {
			t.Fatalf("half the input yielded %d frames, all of it %d", len(cut), len(whole))
		}
		for i := range cut {
			if cut[i].typ != whole[i].typ || !bytes.Equal(cut[i].payload, whole[i].payload) {
				t.Fatalf("frame %d of the truncated input is not frame %d of the whole", i, i)
			}
		}
	})
}

// FuzzDecode hands a payload to the decoder its frame type selects, as
// serveConn and RemoteWorker.RunShard do. No decoder may panic or
// allocate beyond a small multiple of the payload; what a decoder accepts
// must survive encode → decode unchanged (and re-encode to the very bytes
// it came from: the layouts are fixed-width, and a job's chain text is
// canonical); a hello is accepted only with this protocol's magic and
// version; a result decodes the same into a reused buffer as into nil;
// and a decoded result is merged only if checkResult finds it in order
// and in range.
func FuzzDecode(f *testing.F) {
	a, b := ipaddr.MustParse("2001:db8::1"), ipaddr.MustParse("fe80::dead:beef")
	f.Add(msgHello, encodeHello("probe-host-7"))
	f.Add(msgJob, encodeJob(Job{Proto: proto.UDP53, Secret: 0xdeadbeefcafe, Retries: 2, RatePPS: 10000, HeartbeatEvery: 250 * time.Millisecond,
		Chain: "taps; shape pps=50000,jitter=0.1,seed=3; rotate seed=5,2001:db8::1; faults loss=0.05,dup=0.01,delay=0,seed=11"}))
	f.Add(msgShard, encodeShard(Shard{ID: 42, Targets: []ipaddr.Addr{a, b}}))
	f.Add(msgBeat, encodeBeat(42, 512))
	f.Add(msgResult, encodeResult(&ShardResult{
		Shard: 42,
		Results: []scanner.Result{
			{Addr: a, Proto: proto.UDP53, Status: scanner.StatusActive, Attempts: 1},
			{Addr: b, Proto: proto.UDP53, Status: scanner.StatusSilent, Attempts: 3},
		},
		Stats:       scanner.StatsFromValues([7]int64{10, 9, 8, 7, 6, 5, 4}),
		WallSeconds: 1.25,
	}))

	// reused is a result buffer that earlier inputs decoded into, as a
	// lease buffer is, so it starts each input holding stale results.
	reused := []scanner.Result{{Addr: b, Proto: proto.ICMP, Status: 9, Attempts: 7}}
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		switch typ {
		case msgHello:
			id, err := decodeHello(payload)
			if err != nil {
				return
			}
			if [4]byte(payload[:4]) != wireMagic || binary.BigEndian.Uint16(payload[4:6]) != wireVersion {
				t.Fatalf("accepted a hello from a stranger: % x", payload[:6])
			}
			if again, err := decodeHello(encodeHello(id)); err != nil || again != id {
				t.Fatalf("hello %q round-trips to %q, %v", id, again, err)
			}
		case msgJob:
			j, err := decodeJob(payload)
			if err != nil {
				return
			}
			if again, err := decodeJob(encodeJob(j)); err != nil || again != j || !bytes.Equal(encodeJob(j), payload) {
				t.Fatalf("job %+v round-trips to %+v, %v", j, again, err)
			}
			if c, err := wire.ParseChainConfig(j.Chain, 0); err != nil || c.String() != j.Chain {
				t.Fatalf("accepted job chain %q reads as %q, %v", j.Chain, c.String(), err)
			}
		case msgShard:
			sh, err := decodeShard(payload)
			if err != nil {
				return
			}
			if 8+16*len(sh.Targets) != len(payload) || !bytes.Equal(encodeShard(sh), payload) {
				t.Fatalf("shard of %d targets from %d bytes does not re-encode to them", len(sh.Targets), len(payload))
			}
		case msgBeat:
			id, done, err := decodeBeat(payload)
			if err != nil {
				return
			}
			if !bytes.Equal(encodeBeat(id, done), payload) {
				t.Fatalf("beat (%d, %d) does not re-encode to % x", id, done, payload)
			}
		case msgResult:
			res, err := decodeResult(payload, proto.TCP80, nil)
			into, ierr := decodeResult(payload, proto.TCP80, reused)
			if (err == nil) != (ierr == nil) {
				t.Fatalf("decoding into nil: %v; into a reused buffer: %v", err, ierr)
			}
			if err != nil {
				return
			}
			reused = into.Results[:cap(into.Results)]
			if into.Shard != res.Shard || !slices.Equal(into.Results, res.Results) || into.Stats.Values() != res.Stats.Values() ||
				math.Float64bits(into.WallSeconds) != math.Float64bits(res.WallSeconds) {
				t.Fatal("a result decoded into a reused buffer differs from one decoded into nil")
			}
			if 8+perResult*len(res.Results)+7*8+8 != len(payload) {
				t.Fatalf("%d results from %d bytes", len(res.Results), len(payload))
			}
			if !math.IsNaN(res.WallSeconds) && !bytes.Equal(encodeResult(res), payload) {
				t.Fatal("result does not re-encode to its bytes")
			}
			sh := Shard{ID: res.Shard}
			inRange := true
			for _, r := range res.Results {
				sh.Targets = append(sh.Targets, r.Addr)
				inRange = inRange && r.Status <= scanner.StatusBlocked
			}
			if err := checkResult(sh, res); (err == nil) != inRange {
				t.Fatalf("checkResult = %v for a result whose statuses are in range: %v", err, inRange)
			}
			sh.Targets = append(sh.Targets, ipaddr.Addr{})
			if checkResult(sh, res) == nil {
				t.Fatal("checkResult accepted a result one short of its shard")
			}
		}
	})
}
