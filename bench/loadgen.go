package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// rec is one completed request of the timed window.
type rec struct {
	kind  opKind
	lat   time.Duration
	ok    bool
	bytes int
	tag   string
}

// sampled is a request whose raw answer was kept for checking after the
// window; nothing is decoded while load is running.
type sampled struct {
	o      op
	status int
	lat    time.Duration
	body   []byte
}

// client is one closed-loop caller on one keep-alive connection: it sends
// its next request when the previous answer has been read in full.
type client struct {
	id   int
	base string
	hc   *http.Client
	buf  bytes.Buffer

	w    *workload
	pre  [][]op // iterations encoded during set-up
	iter int    // next iteration to send
	// pick draws the answers kept for checking. A seeded draw, not every
	// n-th request: iterations have fixed lengths, and a stride that shares
	// a factor with one would never land on some request kinds.
	pick        *rand.Rand
	sampleEvery int

	recs    []rec
	cycles  []time.Duration
	samples []sampled
	// lastUpdate is the newest acknowledged update, the version a crash
	// must not lose.
	lastUpdate sampled
	// openSent and openFailed count the open-loop leg's requests.
	openSent, openFailed int
}

func newClients(w *workload, base string, seed int64, sampleEvery int) []*client {
	cs := make([]*client, w.clients)
	for c := range cs {
		cl := &client{id: c, base: base, w: w, pick: rowRand(seed, "sample", c), sampleEvery: sampleEvery}
		cl.connect()
		for i := 0; i < w.prebuild; i++ {
			cl.pre = append(cl.pre, w.iteration(c, i))
		}
		cs[c] = cl
	}
	return cs
}

// connect gives the client a fresh single connection (also after a crash
// of the server broke the old one).
func (c *client) connect() {
	c.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func (c *client) iterationOps(i int) []op {
	if i < len(c.pre) {
		return c.pre[i]
	}
	return c.w.iteration(c.id, i)
}

// send performs one request and leaves the answer in c.buf.
func (c *client) send(ctx context.Context, o *op) (int, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, c.base+o.path, body)
	if err != nil {
		return 0, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// must sends a set-up request and fails on anything but a 2xx answer.
func (c *client) must(ctx context.Context, o op) error {
	status, err := c.send(ctx, &o)
	if err != nil {
		return fmt.Errorf("%s %s: %w", o.method, o.path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", o.method, o.path, status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

func (c *client) keep(o *op, status int, lat time.Duration) sampled {
	return sampled{o: *o, status: status, lat: lat, body: append([]byte(nil), c.buf.Bytes()...)}
}

// runIteration sends one iteration's requests. With record set, requests
// are timed, counted and sampled one in sampleEvery.
func (c *client) runIteration(ctx context.Context, record bool) {
	ops := c.iterationOps(c.iter)
	c.iter++
	var cycle time.Duration
	for k := range ops {
		o := &ops[k]
		start := time.Now()
		status, err := c.send(ctx, o)
		lat := time.Since(start)
		cycle += lat
		ok := err == nil && status/100 == 2
		if ok && o.kind == opUpdate {
			c.lastUpdate = c.keep(o, status, lat)
		}
		if !record {
			continue
		}
		c.recs = append(c.recs, rec{kind: o.kind, lat: lat, ok: ok, bytes: c.buf.Len(), tag: o.tag})
		// A failed request is always kept: the report shows what it said.
		if c.pick.Intn(c.sampleEvery) == 0 || !ok {
			c.samples = append(c.samples, c.keep(o, status, lat))
		}
		if o.kind == opDeregister {
			c.cycles = append(c.cycles, cycle)
			cycle = 0
		}
	}
}

// runPhase drives every client for about d and returns the wall time from
// the common start to the last answer. A client starts another iteration
// only if the previous one's duration still fits before the deadline, so a
// phase holds whole iterations and never runs far past d; the first
// iteration always runs.
func runPhase(ctx context.Context, clients []*client, d time.Duration, record bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var last time.Duration
			for first := true; ctx.Err() == nil; first = false {
				now := time.Now()
				if !first && now.Add(last).After(deadline) {
					return
				}
				c.runIteration(ctx, record)
				last = time.Since(now)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends the clients' iterations on a fixed schedule of rate
// requests per second in total, whatever the answers take, and times each
// request from when it was due. It returns the latencies and, per request,
// how late the generator itself sent it.
func openLoop(ctx context.Context, clients []*client, d time.Duration, rate int) (lat, late []time.Duration) {
	interval := time.Duration(float64(time.Second) * float64(len(clients)) / float64(rate))
	start := time.Now()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var myLat, myLate []time.Duration
			ops := c.iterationOps(c.iter)
			first := start.Add(interval * time.Duration(c.id) / time.Duration(len(clients)))
			for j := 0; ctx.Err() == nil; j++ {
				due := first.Add(interval * time.Duration(j))
				if due.Sub(start) >= d {
					break
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				c.openSent++
				if status, err := c.send(ctx, &ops[j%len(ops)]); err != nil || status/100 != 2 {
					c.openFailed++
				}
				myLat = append(myLat, time.Since(due))
				myLate = append(myLate, sent.Sub(due))
			}
			mu.Lock()
			lat, late = append(lat, myLat...), append(late, myLate...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return lat, late
}
