package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/server"
)

const (
	openRate  = 400.0 // open-loop Poisson arrival rate, requests per second
	hitFrac   = 0.8   // share of requests drawn from the warmed head
	zipfS     = 1.1   // Zipf exponent over the head's ranks
	openShare = 0.15  // share of --seconds spent in the open loop; the closed loop gets the rest
	svcSetups = 5     // set-up repetitions; setup_s is their median
	replicas  = 2

	// Closed-loop throughput and host factors are taken per window of at
	// least this length.
	window = 2500 * time.Millisecond

	// Host-factor sampling (calib.go): every svcCalPause of the closed loop
	// the clients pause while one chunk of svcCalEvents reference events
	// (about 1.5 ms) runs on each of two threads, and set-up runs three
	// chunks before each repetition.
	svcCalEvents = 4000
	svcCalPause  = 250 * time.Millisecond

	// rounds and msgs_per_move count the misses of the open loop and of
	// the first countedClosed requests of the closed loop, a set fixed by
	// the seed, so both repeat exactly at a seed.
	countedClosed = 12000
)

// headSpecs is the warmed working set, in Zipf rank order: 32 small specs
// (fig10 seed variants, towers, slopes and random staircases), interleaved
// so every kind has a hot member.
func headSpecs() []server.RunSpec {
	var fig, tower, slope, stair []server.RunSpec
	for s := int64(1); s <= 12; s++ {
		fig = append(fig, server.RunSpec{Scenario: "fig10", Seed: s})
	}
	for n := 6; n <= 20; n += 2 {
		tower = append(tower, server.RunSpec{Scenario: "tower", Params: scenario.Params{"n": n}})
	}
	for rise := 6; rise <= 11; rise++ {
		slope = append(slope, server.RunSpec{Scenario: "slope", Params: scenario.Params{"top": 5, "rise": rise}})
	}
	for s := 1; s <= 6; s++ {
		stair = append(stair, server.RunSpec{Scenario: "random-stair", Params: scenario.Params{"seed": s}})
	}
	var out []server.RunSpec
	for i := 0; len(out) < 32; i++ {
		for _, kind := range [][]server.RunSpec{fig, tower, slope, stair} {
			if i < len(kind) {
				out = append(out, kind[i])
			}
		}
	}
	return out
}

// svcReq is one request of the mix: a head rank, or a cold random-stair
// seed that is never repeated within a run.
type svcReq struct {
	ID   int
	Due  time.Duration // open loop: offset from the phase start
	Head int           // head rank, -1 for a cold spec
	Cold int           // random-stair generator seed of a cold spec
}

func (r svcReq) spec(head []server.RunSpec) server.RunSpec {
	if r.Head >= 0 {
		return head[r.Head]
	}
	return server.RunSpec{Scenario: "random-stair", Params: scenario.Params{"seed": r.Cold}}
}

// mixGen draws the request mix. Everything it produces — arrival times,
// Zipf ranks, cold seeds — comes from the workload seed alone.
type mixGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	used map[int]bool
	next int
}

func newMixGen(seed int64, headN int) *mixGen {
	rng := rand.New(rand.NewSource(seed))
	return &mixGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(headN-1)), used: map[int]bool{}}
}

func (g *mixGen) draw() svcReq {
	r := svcReq{ID: g.next, Head: -1}
	g.next++
	if g.rng.Float64() < hitFrac {
		r.Head = int(g.zipf.Uint64())
		return r
	}
	for {
		// Far above the head's random-stair seeds, so a cold spec is never warm.
		s := 1<<20 + g.rng.Intn(1<<40)
		if !g.used[s] {
			g.used[s] = true
			r.Cold = s
			return r
		}
	}
}

// openSchedule draws the Poisson arrivals of an open loop of length dur.
func (g *mixGen) openSchedule(rate float64, dur time.Duration) []svcReq {
	var out []svcReq
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		r := g.draw()
		r.Due = due
		out = append(out, r)
	}
}

// fleet is one in-process deployment: replicas with cache peering behind
// the affinity gateway, each handler wrapped by the span log.
type fleet struct {
	srvs []*server.Server
	ts   []*httptest.Server
	g    *gate.Gateway
	gw   *httptest.Server
}

func startFleet(spans *spanLog) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < replicas; i++ {
		s := server.New(server.Config{PeerProbe: true})
		ts := httptest.NewServer(spans.wrap("replica", i, s.Handler()))
		f.srvs = append(f.srvs, s)
		f.ts = append(f.ts, ts)
		urls = append(urls, ts.URL)
	}
	g, err := gate.New(gate.Config{Replicas: urls, PeerProbe: true})
	if err != nil {
		f.close()
		return nil, err
	}
	f.g = g
	f.gw = httptest.NewServer(spans.wrap("gate", -1, g.Handler()))
	return f, nil
}

func (f *fleet) close() {
	if f.gw != nil {
		f.gw.Close()
	}
	if f.g != nil {
		f.g.Close()
	}
	for i := range f.ts {
		f.ts[i].Close()
		f.srvs[i].Close()
	}
}

// outcome is what the load generator saw of one request.
type outcome struct {
	req     svcReq
	sent    time.Time // handed to a connection
	end     time.Time // end of stream
	lag     time.Duration
	latency time.Duration // from due (open loop) or send (closed loop) to end of stream
	wire    time.Duration // from send to end of stream
	first   time.Duration // from send to the first NDJSON record
	xcache  string
	body    []byte
	err     error
	rec     resultRecord
}

// resultRecord is the part of the stream's terminal record that is checked.
type resultRecord struct {
	Type         string `json:"type"`
	Success      bool   `json:"success"`
	PathBuilt    bool   `json:"path_built"`
	Rounds       int    `json:"rounds"`
	Hops         int    `json:"hops"`
	MessagesSent uint64 `json:"messages_sent"`
}

// client issues requests over at most nproc connections.
type client struct {
	hc   *http.Client
	base string
	head [][]byte // request bodies of the head specs
}

func newClient(base string, head []server.RunSpec, conns int) (*client, error) {
	c := &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
	for _, sp := range head {
		b, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		c.head = append(c.head, b)
	}
	return c, nil
}

// reader is one connection's reusable read buffer.
type reader struct {
	buf   bytes.Buffer
	chunk [32 << 10]byte
}

// do sends one request and reads its whole NDJSON stream into rd; o.body
// points into rd until its next use. t0 is the instant latencies count from.
func (c *client) do(ctx context.Context, r svcReq, t0 time.Time, o *outcome, rd *reader) {
	var body []byte
	if r.Head >= 0 {
		body = c.head[r.Head]
	} else {
		body, _ = json.Marshal(r.spec(nil)) // a map of ints and strings always marshals
	}
	url := fmt.Sprintf("%s/v1/runs?stream=ndjson&rid=%d", c.base, r.ID)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	o.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.xcache = resp.Header.Get("X-Cache")
	rd.buf.Reset()
	for {
		n, rerr := resp.Body.Read(rd.chunk[:])
		if n > 0 {
			if o.first == 0 && bytes.IndexByte(rd.chunk[:n], '\n') >= 0 {
				o.first = time.Since(o.sent)
			}
			rd.buf.Write(rd.chunk[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			o.err = rerr
			return
		}
	}
	o.end = time.Now()
	o.latency = o.end.Sub(t0)
	o.wire = o.end.Sub(o.sent)
	o.body = rd.buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(o.body)))
		return
	}
	last := bytes.TrimSpace(o.body)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	if err := json.Unmarshal(last, &o.rec); err != nil || o.rec.Type != "result" {
		o.err = fmt.Errorf("stream does not end in a result record: %.200s", last)
	}
}

// svcSetup starts a fleet and warms the head through the gateway,
// returning the body each head spec's stream carried.
func svcSetup(ctx context.Context, spans *spanLog, head []server.RunSpec) (*fleet, [][]byte, error) {
	f, err := startFleet(spans)
	if err != nil {
		return nil, nil, err
	}
	c, err := newClient(f.gw.URL, head, 1)
	if err != nil {
		f.close()
		return nil, nil, err
	}
	defer c.hc.CloseIdleConnections()
	warm := make([][]byte, len(head))
	var rd reader
	for i := range head {
		var o outcome
		c.do(ctx, svcReq{ID: -1 - i, Head: i}, time.Now(), &o, &rd)
		if o.err != nil {
			f.close()
			return nil, nil, fmt.Errorf("warming %+v: %w", head[i], o.err)
		}
		// Every head spec completes; fig10 at seed 1 is the paper's 109-hop run.
		if !o.rec.Success || !o.rec.PathBuilt ||
			(head[i].Scenario == "fig10" && head[i].Seed == 1 && o.rec.Hops != 109) {
			f.close()
			return nil, nil, fmt.Errorf("warming %+v: %+v, want a successful run (109 hops for fig10 seed 1)", head[i], o.rec)
		}
		warm[i] = bytes.Clone(o.body)
	}
	return f, warm, nil
}

func runSvc(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	head := headSpecs()
	spans := newSpanLog()
	nproc := runtime.NumCPU()

	var setups []float64
	var f *fleet
	var warm [][]byte
	setupHost := hostClock{k: newCalKernel()}
	for i := 0; i < svcSetups; i++ {
		if f != nil {
			f.close()
		}
		for j := 0; j < 3; j++ {
			setupHost.sampleLocked(svcCalEvents)
		}
		t0 := time.Now()
		var err error
		f, warm, err = svcSetup(ctx, spans, head)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	rep.attempted += len(head) * svcSetups
	spans.reset(o.trace)

	c, err := newClient(f.gw.URL, head, nproc)
	if err != nil {
		return nil, err
	}
	defer c.hc.CloseIdleConnections()

	gen := newMixGen(o.seed, len(head))
	total := time.Duration(o.seconds) * time.Second
	openDur := time.Duration(float64(total) * openShare)
	sched := gen.openSchedule(openRate, openDur)

	// Open loop: one dispatcher releases each request at its due time to
	// nproc workers; latency counts from the due time, so a stall delays
	// every request queued behind it.
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	open := make([]outcome, len(sched))
	queue := make(chan int, len(sched)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rd reader
			for i := range queue {
				out := &open[i]
				c.do(ctx, out.req, start.Add(out.req.Due), out, &rd)
				checkHit(out, warm)
			}
		}()
	}
	for i, r := range sched {
		open[i].req = r
		due := start.Add(r.Due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		open[i].lag = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	runtime.ReadMemStats(&m1)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Closed loop: nproc clients, each sending its next request of the
	// same mix as soon as the previous one completed. Every svcCalPause the
	// calibrator takes the gate, which waits for the requests in flight,
	// runs a reference chunk (calib.go) on each of two threads with the
	// fleet idle and lets the clients go on; the pauses are left out of the
	// throughput.
	var mu sync.Mutex
	var closed []outcome
	var gate sync.RWMutex
	host := hostClock{k: setupHost.k}
	host2 := hostClock{k: newCalKernel()} // the second vCPU's chunks
	var pauses [][2]time.Time             // start and end of each pause
	cStart := time.Now()
	cEnd := cStart.Add(total - openDur)
	calDone := make(chan struct{})
	calStopped := make(chan struct{})
	go func() {
		defer close(calStopped)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for {
			select {
			case <-calDone:
				return
			case <-time.After(svcCalPause):
			}
			gate.Lock()
			t0 := time.Now()
			helper := make(chan struct{})
			go func() {
				host2.sampleLocked(svcCalEvents)
				close(helper)
			}()
			host.sample(svcCalEvents)
			<-helper
			pauses = append(pauses, [2]time.Time{t0, time.Now()})
			gate.Unlock()
		}
	}()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rd reader
			for time.Now().Before(cEnd) && ctx.Err() == nil {
				mu.Lock()
				r := gen.draw()
				mu.Unlock()
				out := outcome{req: r}
				gate.RLock()
				c.do(ctx, r, time.Now(), &out, &rd)
				gate.RUnlock()
				checkHit(&out, warm)
				mu.Lock()
				closed = append(closed, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(calDone)
	<-calStopped
	host.chunks = append(host.chunks, host2.chunks...)
	runtime.ReadMemStats(&m2)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Correctness: every stream ends in a result record, and hits were
	// compared as they arrived (checkHit). A run that reports failure must
	// be the engine's own answer for that spec (some random staircases are
	// outside the greedy election's envelope), checked here by re-running it.
	lib := rules.StandardLibrary()
	verify := func(out *outcome) {
		rep.attempted++
		switch {
		case out.err != nil:
			rep.fail("request %d (%+v): %v", out.req.ID, out.req.spec(head), out.err)
		case !out.rec.Success || !out.rec.PathBuilt:
			if err := sameAsEngine(ctx, lib, out.req.spec(head), out.rec); err != nil {
				rep.fail("request %d: %v", out.req.ID, err)
				out.err = err
			}
		}
	}
	for i := range open {
		verify(&open[i])
	}
	for i := range closed {
		verify(&closed[i])
	}

	if o.trace {
		svcLayers(rep, f, open, spans, m0, m1)
		return rep, nil
	}

	// The end-to-end figures come from the closed loop. Its requests are
	// timed from the send, and each timing is divided by the host's wall
	// factor in the window the request ended in (calib.go). Latencies and
	// throughput are taken per window and the median over the windows
	// reported, so a few seconds of contention from outside the process
	// move one window and not the figure.
	wins := max(1, int((total-openDur)/window))
	winLen := (total - openDur) / time.Duration(wins)
	winOf := func(t time.Time) int { return max(0, min(int(t.Sub(cStart)/winLen), wins-1)) }
	fw := make([]float64, wins)
	for w := range fw {
		from := cStart.Add(time.Duration(w) * winLen)
		fw[w] = host.wallFactor(from, from.Add(winLen))
	}
	var lat, first, miss, rawLat []float64
	var latW, missW []int
	perWin := make([]float64, wins)
	for _, out := range closed {
		w := winOf(out.end)
		l, fe := ms(out.latency), ms(out.first)
		if out.err != nil {
			l, fe = math.Inf(1), math.Inf(1) // a failure misses any latency limit
		} else if out.end.Before(cEnd) {
			perWin[w]++
		}
		rawLat, latW = append(rawLat, l), append(latW, w)
		lat, first = append(lat, l/fw[w]), append(first, fe/fw[w])
		if out.req.Head < 0 {
			miss, missW = append(miss, l/fw[w]/1e3), append(missW, w)
		}
	}
	for w := range perWin {
		from := cStart.Add(time.Duration(w) * winLen)
		busy := winLen
		for _, p := range pauses {
			if !p[0].Before(from) && p[0].Before(from.Add(winLen)) {
				busy -= p[1].Sub(p[0])
			}
		}
		perWin[w] = perWin[w] / busy.Seconds() * fw[w]
	}
	// Rounds and messages to completion over the counted misses that
	// completed: a run that exhausted its round budget did not complete.
	var rounds []float64
	var msgs, hops float64
	for _, out := range append(append([]outcome(nil), open...), closed...) {
		counted := out.req.ID < len(sched)+countedClosed
		if counted && out.req.Head < 0 && out.err == nil && out.rec.Success {
			rounds = append(rounds, float64(out.rec.Rounds))
			msgs += float64(out.rec.MessagesSent)
			hops += float64(out.rec.Hops)
		}
	}
	var openLat []float64
	for _, out := range open {
		openLat = append(openLat, ms(out.latency))
	}
	var zero time.Time
	n := len(open) + len(closed)
	rep.set("run_s", "s", windowed(missW, miss, 0.5), len(miss))
	rep.set("alloc_mb", "MB", float64(m2.TotalAlloc-m0.TotalAlloc)/1e6/float64(n), n)
	rep.set("rounds", "count", mean(rounds), len(rounds))
	rep.set("msgs_per_move", "count", msgs/hops, len(rounds))
	rep.set("p50_ms", "ms", windowed(latW, lat, 0.5), len(lat))
	rep.set("p99_ms", "ms", windowed(latW, lat, 0.99), len(lat))
	rep.set("first_event_p99_ms", "ms", windowed(latW, first, 0.99), len(first))
	rep.set("sat_rps", "1/s", median(perWin), len(closed))
	rep.set("setup_s", "s", median(setups)/setupHost.wallFactor(zero, zero), len(setups))
	rep.info("raw.p50_ms", "ms", windowed(latW, rawLat, 0.5))
	rep.info("raw.p99_ms", "ms", windowed(latW, rawLat, 0.99))
	rep.info("raw.setup_s", "s", median(setups))
	rep.info("open.p50_ms", "ms", median(openLat))
	rep.info("open.p99_ms", "ms", quantile(openLat, 0.99))
	rep.info("host.wall_factor", "1", host.wallFactor(zero, zero))
	rep.info("host.cpu_factor", "1", host.cpuFactor(zero, zero))
	rep.info("host.setup_wall_factor", "1", setupHost.wallFactor(zero, zero))
	return rep, nil
}

// checkHit fails a cache hit whose body differs from the body its spec
// streamed at warm-up, then drops the body, which points into a reused
// buffer.
func checkHit(out *outcome, warm [][]byte) {
	if out.err == nil && out.xcache == "hit" && (out.req.Head < 0 || !bytes.Equal(out.body, warm[out.req.Head])) {
		out.err = fmt.Errorf("cache hit differs from the warm-up stream")
	}
	out.body = nil
}

// windowed returns the median over windows of each window's q-quantile;
// win[i] is the window of xs[i].
func windowed(win []int, xs []float64, q float64) float64 {
	by := map[int][]float64{}
	for i, x := range xs {
		by[win[i]] = append(by[win[i]], x)
	}
	var per []float64
	for _, v := range by {
		per = append(per, quantile(v, q))
	}
	return median(per)
}

// sameAsEngine re-runs a spec in-process on the engine the replicas use
// (standard library, seed 1) and checks the streamed record reports the
// same run.
func sameAsEngine(ctx context.Context, lib *rules.Library, sp server.RunSpec, rec resultRecord) error {
	sc, err := scenario.Build(sp.Scenario, sp.Params)
	if err != nil {
		return err
	}
	cfg := sc.Config()
	cfg.ParallelMoves = sp.K
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	res, err := core.NewEngine(lib, core.WithSeed(seed)).Run(ctx, sc.Surface, cfg)
	if err != nil {
		return fmt.Errorf("%+v: re-run: %w", sp, err)
	}
	if res.Success != rec.Success || res.PathBuilt != rec.PathBuilt || res.Rounds != rec.Rounds ||
		res.Hops != rec.Hops || res.MessagesSent != rec.MessagesSent {
		return fmt.Errorf("%+v: streamed %+v, engine ran %v", sp, rec, res)
	}
	return nil
}
