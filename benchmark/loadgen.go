package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newConn returns a client that owns exactly one keep-alive connection,
// so "n connections" means n clients.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func closeConns(conns []*http.Client) {
	for _, c := range conns {
		c.CloseIdleConnections()
	}
}

// fetch performs one request and returns the body (read into buf, which
// is reused between calls on the same connection).
func fetch(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	return buf.Bytes(), nil
}

// closedLoop issues requests 0..n-1 over the given connections, each
// connection sending its next request only once the previous one's reply
// is in: callers that wait for an answer. do performs and checks request
// i on connection c. It returns every request's latency in nanoseconds,
// the wall time of the whole batch, and how many requests failed.
func closedLoop(conns []*http.Client, n int, do func(c *http.Client, conn, i int) error) (latNs []int64, wall time.Duration, failed int64, firstErr error) {
	latNs = make([]int64, n)
	var next, fails atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				err := do(c, ci, i)
				latNs[i] = int64(time.Since(t0))
				if err != nil {
					fails.Add(1)
					errOnce.Do(func() { firstErr = err })
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return latNs, time.Since(start), fails.Load(), firstErr
}

// pacedResult is what an open-loop generator observed.
type pacedResult struct {
	// LatNs is each request's latency measured from when it was due, so a
	// stall's cost to the requests queued behind it is counted.
	LatNs []int64
	// LateNs is how far behind its schedule the generator sent each one.
	LateNs   []int64
	Failed   int64
	FirstErr error
}

// paced issues requests on a fixed schedule — request i is due at
// start + i/rate — until ctx ends, whether or not earlier replies were
// slow: independent users. It uses one connection, so a reply slower than
// the interval delays the requests behind it, and that delay is charged
// to them.
func paced(ctx context.Context, rate int, do func(i int) error) pacedResult {
	var res pacedResult
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return res
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return res
		}
		sent := time.Now()
		err := do(i)
		done := time.Now()
		if ctx.Err() != nil {
			return res // the run ended under this request; do not count it
		}
		res.LateNs = append(res.LateNs, int64(sent.Sub(due)))
		res.LatNs = append(res.LatNs, int64(done.Sub(due)))
		if err != nil {
			res.Failed++
			if res.FirstErr == nil {
				res.FirstErr = err
			}
		}
	}
}

// newBufs returns one reusable body buffer per connection.
func newBufs(n int) []bytes.Buffer { return make([]bytes.Buffer, n) }

// toFloats converts nanosecond samples to float64 in the given unit.
func toFloats(ns []int64, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / per
	}
	return out
}
