package main

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// httpSpan is one handler invocation of the gateway or a replica. Spans of
// one request share its rid, which the load generator puts in the query
// string; the gateway forwards the query verbatim and the replica ignores
// the parameter.
type httpSpan struct {
	RID     int    `json:"rid"`
	Layer   string `json:"layer"` // "gate" (parent: loadgen) or "replica" (parent: gate)
	Replica int    `json:"replica"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Cache   string `json:"cache,omitempty"`
	Status  int    `json:"status"`
	Bytes   int64  `json:"bytes"`
}

func (s httpSpan) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// spanLog keeps the spans of a traced run in memory. Only requests with an
// odd rid are traced, so the untraced even ones measure the overhead on the
// same stream.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []httpSpan
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// reset drops the spans recorded so far and turns tracing on or off.
func (l *spanLog) reset(on bool) {
	l.mu.Lock()
	l.spans, l.t0 = nil, time.Now()
	l.mu.Unlock()
	l.on.Store(on)
}

// wrap is middleware around a gateway or replica handler.
func (l *spanLog) wrap(layer string, replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() || r.URL.Path != "/v1/runs" {
			h.ServeHTTP(w, r)
			return
		}
		rid, err := strconv.Atoi(r.URL.Query().Get("rid"))
		if err != nil || rid%2 == 0 {
			h.ServeHTTP(w, r)
			return
		}
		rw := &recWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rw, r)
		end := time.Now()
		l.mu.Lock()
		l.spans = append(l.spans, httpSpan{RID: rid, Layer: layer, Replica: replica,
			StartNS: int64(start.Sub(l.t0)), EndNS: int64(end.Sub(l.t0)),
			Cache: w.Header().Get("X-Cache"), Status: rw.status, Bytes: rw.bytes})
		l.mu.Unlock()
	})
}

// recWriter records the status and body size of a response and passes
// flushes through, so streams stay unbuffered.
type recWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *recWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *recWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *recWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// svcLayers reports the per-layer metrics of a traced svc_mix run from the
// open-loop spans, the gateway's routing counters and the replicas' own
// metrics (read once at the end, program-reported).
func svcLayers(rep *report, f *fleet, open []outcome, spans *spanLog, m0, m1 runtime.MemStats) {
	spans.on.Store(false)
	// A handler records its span after the client has read the last byte,
	// so the slice is still shared with the servers' goroutines.
	spans.mu.Lock()
	all := append([]httpSpan(nil), spans.spans...)
	spans.mu.Unlock()
	inOpen := map[int]*outcome{}
	for i := range open {
		inOpen[open[i].req.ID] = &open[i]
	}
	gateSpan := map[int]httpSpan{}
	var gateMS, selfMS, respKB []float64
	handler := map[string][]float64{}
	var replicaSpans []httpSpan
	for _, s := range all {
		if _, ok := inOpen[s.RID]; !ok {
			continue
		}
		if s.Layer == "gate" {
			gateSpan[s.RID] = s
			gateMS = append(gateMS, s.ms())
		} else {
			replicaSpans = append(replicaSpans, s)
			handler[s.Cache] = append(handler[s.Cache], s.ms())
			respKB = append(respKB, float64(s.Bytes)/1e3)
		}
	}
	var gateSum, wireSum float64
	for _, s := range replicaSpans {
		if g, ok := gateSpan[s.RID]; ok {
			selfMS = append(selfMS, g.ms()-s.ms())
			gateSum += g.ms()
			wireSum += ms(inOpen[s.RID].wire)
		}
	}
	rep.layer("gate.handler_ms_p50", median(gateMS), len(gateMS))
	rep.layer("gate.proxy_self_ms_p50", median(selfMS), len(selfMS))
	rep.layer("gate.proxy_self_ms_p99", quantile(selfMS, 0.99), len(selfMS))
	gm := f.g.Metrics()
	var maxRouted uint64
	for _, r := range gm.Replicas {
		maxRouted = max(maxRouted, r.Routed)
	}
	rep.layer("gate.retries", float64(gm.RetriesTotal), 1)
	rep.layer("gate.replica_share_max", float64(maxRouted)/float64(gm.RoutedTotal), int(gm.RoutedTotal))
	for _, c := range []string{"hit", "miss"} {
		rep.layer("server.handler_ms_p50."+c, median(handler[c]), len(handler[c]))
		rep.layer("server.handler_ms_p99."+c, quantile(handler[c], 0.99), len(handler[c]))
	}
	rep.layer("server.resp_kb_mean", mean(respKB), len(respKB))

	var snaps []server.MetricsSnapshot
	for _, s := range f.srvs {
		snaps = append(snaps, s.Metrics().Snapshot())
	}
	fs := server.MergeSnapshots(snaps)
	lookups := fs.Cache.Hits + fs.Cache.Misses
	rep.layer("server.cache.hit_ratio", float64(fs.Cache.Hits)/float64(max(lookups, 1)), int(lookups))
	rep.layer("server.cache.peer_hits", float64(fs.Cache.PeerHits), 1)
	rep.layer("server.cache.coalesced", float64(fs.Cache.Coalesced), 1)
	for _, p := range []string{"enqueue", "flush", "run", "respond"} {
		a := fs.Latency[p]
		rep.layer("server.phase."+p+"_ms_p95", float64(a.P95NS)/1e6, int(a.Count))
	}
	rep.layer("server.batch_size_mean", float64(fs.Batched)/float64(max(fs.Batches, 1)), int(fs.Batches))
	rep.layer("server.rejected", float64(fs.Rejected), 1)

	var lag, traced, plain []float64
	var first, last time.Time
	for _, o := range open {
		lag = append(lag, ms(o.lag))
		if first.IsZero() || o.sent.Before(first) {
			first = o.sent
		}
		if o.sent.After(last) {
			last = o.sent
		}
		if o.req.ID%2 == 1 {
			traced = append(traced, ms(o.latency))
		} else {
			plain = append(plain, ms(o.latency))
		}
	}
	rep.layer("loadgen.lag_p99_ms", quantile(lag, 0.99), len(lag))
	rep.layer("loadgen.offered_rps", float64(len(open)-1)/last.Sub(first).Seconds(), len(open))
	rep.layer("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(len(open)), len(open))
	rep.layer("go.gc_n", float64(m1.NumGC-m0.NumGC), 1)
	rep.layer("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 1)
	rep.layer("trace.overhead_frac", median(traced)/median(plain)-1, len(open))
	rep.layer("trace.run_coverage", gateSum/wireSum, len(selfMS))
	fillLayers(rep)

	type lgSpan struct {
		RID     int    `json:"rid"`
		Layer   string `json:"layer"`
		DueNS   int64  `json:"due_ns"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	var lg []lgSpan
	for _, o := range open {
		if o.req.ID%2 == 1 {
			sent := int64(o.sent.Sub(spans.t0))
			lg = append(lg, lgSpan{RID: o.req.ID, Layer: "loadgen",
				DueNS: sent - int64(o.latency-o.wire), StartNS: sent, EndNS: sent + int64(o.wire)})
		}
	}
	rep.spans = map[string]any{"loadgen": lg, "http": all}
}
