package main

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, in BENCHMARK.json order. A
// traced run reports all of them; a layer the workload does not exercise
// (the service tier on the staircase runs, the engine hooks inside the
// replicas of svc_mix) reads 0 with 0 samples.
var layerMetrics = func() []layerMetric {
	var l []layerMetric
	add := func(unit string, names ...string) {
		for _, n := range names {
			l = append(l, layerMetric{n, unit})
		}
	}
	add("s", "sim.boot_s", "sim.drive_s", "sim.self_s", "sim.send_s")
	add("count", "sim.events", "sim.delivered", "sim.dropped")
	for t := msg.TypeActivate; t <= msg.TypeFinished; t++ {
		add("count", "msg.sent."+metricName(t.String()))
	}
	add("B", "msg.mem_bytes", "msg.wire_bytes")
	for _, h := range hookNames {
		add("s", "core.self_s."+h)
	}
	for _, h := range hookNames {
		add("count", "core.calls."+h)
	}
	add("count", "core.elections", "core.escape_elections", "core.moves_elected",
		"core.move_failures", "core.candidate_enumerations", "core.distance_computations",
		"core.candidates_dropped")
	for k := core.EventRoundStarted; k <= core.EventLog; k++ {
		add("count", "core.events."+metricName(k.String()))
	}
	add("s", "lattice.move_s")
	add("count", "lattice.move_n", "lattice.move_failed_n")
	add("s", "lattice.validate_move_set_s")
	add("count", "lattice.validate_move_set_n")
	add("1", "lattice.validate_move_set_accept_ratio")
	add("s", "lattice.cut_vertex_s")
	add("count", "lattice.cut_vertex_n", "lattice.sense_n")
	add("MB", "go.alloc_mb")
	add("count", "go.gc_n")
	add("ms", "go.gc_pause_ms")
	add("ms", "gate.handler_ms_p50", "gate.proxy_self_ms_p50", "gate.proxy_self_ms_p99")
	add("count", "gate.retries")
	add("1", "gate.replica_share_max")
	add("ms", "server.handler_ms_p50.hit", "server.handler_ms_p50.miss",
		"server.handler_ms_p99.hit", "server.handler_ms_p99.miss")
	add("KB", "server.resp_kb_mean")
	add("1", "server.cache.hit_ratio")
	add("count", "server.cache.peer_hits", "server.cache.coalesced")
	add("ms", "server.phase.enqueue_ms_p95", "server.phase.flush_ms_p95",
		"server.phase.run_ms_p95", "server.phase.respond_ms_p95")
	add("count", "server.batch_size_mean", "server.rejected")
	add("ms", "loadgen.lag_p99_ms")
	add("1/s", "loadgen.offered_rps")
	add("1", "trace.overhead_frac", "trace.run_coverage")
	return l
}()

func metricName(s string) string { return strings.ReplaceAll(s, "-", "_") }

// fillLayers reports every per-layer metric the workload did not set as 0
// with 0 samples, so each traced run names the whole set.
func fillLayers(rep *report) {
	for _, m := range layerMetrics {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, m.unit, 0, 0)
		}
	}
}

// layerUnits maps each per-layer metric to its unit.
var layerUnits = func() map[string]string {
	m := map[string]string{}
	for _, l := range layerMetrics {
		m[l.name] = l.unit
	}
	return m
}()

// layer records a per-layer metric with its unit from layerMetrics.
func (r *report) layer(name string, v float64, n int) { r.set(name, layerUnits[name], v, n) }

// runLayers computes the per-layer metrics of one traced staircase run.
func runLayers(r stairRun) map[string]float64 {
	x := r.tracer
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	v := map[string]float64{}
	var hookNS, sent int64
	for k, h := range hookNames {
		hookNS += x.hooks[k].NS
		v["core.self_s."+h] = sec(x.hooks[k].NS - x.hookEnv[k])
		v["core.calls."+h] = float64(x.hooks[k].N)
	}
	v["sim.boot_s"] = sec(x.bootNS)
	v["sim.drive_s"] = sec(x.driveNS)
	v["sim.self_s"] = sec(x.driveNS - hookNS)
	v["sim.send_s"] = sec(x.env[envSend].NS)
	v["sim.events"] = float64(r.res.Events)
	v["sim.delivered"] = float64(x.delivered)
	v["sim.dropped"] = float64(r.res.MessagesDropped)
	for ty := msg.TypeActivate; ty <= msg.TypeFinished; ty++ {
		v["msg.sent."+metricName(ty.String())] = float64(x.sent[ty])
		sent += x.sent[ty]
	}
	v["msg.mem_bytes"] = float64(sent * messageBytes)
	v["msg.wire_bytes"] = float64(x.wireBytes)
	c := r.res.Counters
	v["core.elections"] = float64(c.Elections)
	v["core.escape_elections"] = float64(c.EscapeElections)
	v["core.moves_elected"] = float64(c.MovesElected)
	v["core.move_failures"] = float64(c.MoveFailures)
	v["core.candidate_enumerations"] = float64(c.CandidateEnumerations)
	v["core.distance_computations"] = float64(c.DistanceComputations)
	v["core.candidates_dropped"] = float64(c.CandidatesDropped)
	for k := core.EventRoundStarted; k <= core.EventLog; k++ {
		v["core.events."+metricName(k.String())] = float64(x.events[k])
	}
	v["lattice.move_s"] = sec(x.env[envMove].NS)
	v["lattice.move_n"] = float64(x.env[envMove].N)
	v["lattice.move_failed_n"] = float64(x.moveFailed)
	v["lattice.validate_move_set_s"] = sec(x.env[envValidateMoveSet].NS)
	v["lattice.validate_move_set_n"] = float64(x.env[envValidateMoveSet].N)
	v["lattice.validate_move_set_accept_ratio"] = 0
	if x.vmsPlanned > 0 {
		v["lattice.validate_move_set_accept_ratio"] = float64(x.vmsValid) / float64(x.vmsPlanned)
	}
	v["lattice.cut_vertex_s"] = sec(x.env[envCutVertex].NS)
	v["lattice.cut_vertex_n"] = float64(x.env[envCutVertex].N)
	v["lattice.sense_n"] = float64(x.senseN)
	v["go.alloc_mb"] = float64(r.allocB) / 1e6
	v["go.gc_n"] = float64(r.gcN)
	v["go.gc_pause_ms"] = float64(r.gcPause) / float64(time.Millisecond)
	v["trace.run_coverage"] = float64(x.bootNS+x.driveNS) / float64(r.wall)
	return v
}

// stairLayers reports the per-layer metrics of the traced staircase runs,
// as means per run, after the trace accounting check.
func stairLayers(rep *report, plain, traced []stairRun) {
	sum := map[string]float64{}
	var wall, plainWall []float64
	for _, r := range traced {
		for _, p := range r.tracer.check(int64(r.wall)) {
			rep.fail("%s", p)
		}
		for name, v := range runLayers(r) {
			sum[name] += v
		}
		wall = append(wall, r.wall.Seconds())
	}
	for name, v := range sum {
		rep.layer(name, v/float64(len(traced)), len(traced))
	}
	for _, r := range plain {
		plainWall = append(plainWall, r.wall.Seconds())
	}
	rep.layer("trace.overhead_frac", median(wall)/median(plainWall)-1, len(traced)+len(plain))
	fillLayers(rep)

	var spans []any
	for i, r := range traced {
		x := r.tracer
		spans = append(spans, map[string]any{
			"run":   i,
			"spans": x.spans,
			"top": []map[string]any{
				{"id": spanRun, "parent": 0, "name": "run", "start_ns": 0, "end_ns": int64(r.wall)},
				{"id": spanBoot, "parent": spanRun, "name": "boot", "dur_ns": x.bootNS},
				{"id": spanDrive, "parent": spanRun, "name": "drive", "dur_ns": x.driveNS},
			},
		})
	}
	rep.spans = map[string]any{"runs": spans, "hooks": hookNames, "env": envNames}
}
