package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/scenario"
)

// stairGolden are the exact counts of SlopeStaircase(60,66) at seed 1.
// msgs 0 means the count is not pinned for that width.
var stairGolden = map[int]struct {
	rounds, hops int
	msgs         uint64
}{
	1:  {rounds: 163, hops: 143, msgs: 2473019},
	16: {rounds: 49, hops: 335},
}

// stairSetups is how many times set-up is repeated; setup_s is the median.
const stairSetups = 11

// roundClock times election attempts from the observer's round events in
// the untraced runs: an attempt lasts from its round-started event to the
// next one (or to termination), and its election is decided at the
// election-decided event. Attempts are timed in CPU time of the thread that
// drives the run, because moments when the host takes the CPU away, not the
// program, otherwise set the slowest attempts. The clock also samples the
// host (calib.go): at an event at least stairCalEvery after the last chunk
// it runs one, whose time it leaves out of the attempt and of the run. An
// attempt's times are divided by the CPU factor of the chunks run during
// it (or of the latest chunk), since the host's speed changes within a run.
type roundClock struct {
	host     hostClock
	lastCal  time.Time
	calWall  time.Duration // wall time spent in reference chunks
	calCPU   time.Duration // thread CPU time of the chunks in the open attempt
	calNS    []float64     // CPU ns per event of the chunks in the open attempt
	open     time.Duration // thread CPU time at the attempt's start
	running  bool
	decided  bool
	decideAt time.Duration // CPU time to the election decision, chunks excluded
	roundMS  []float64     // normalised attempt CPU times
	decideMS []float64     // normalised attempt start → election decided
}

const (
	stairCalEvents = 4000                  // events per reference chunk, about 1.5 ms
	stairCalEvery  = 25 * time.Millisecond // about one chunk per k=1 round
)

func (c *roundClock) onEvent(ev core.Event) {
	if time.Since(c.lastCal) >= stairCalEvery {
		c.lastCal = time.Now()
		wall, cpu := c.host.sample(stairCalEvents)
		c.calWall += wall
		c.calCPU += cpu
		c.calNS = append(c.calNS, float64(cpu)/stairCalEvents)
	}
	switch ev.Kind {
	case core.EventRoundStarted, core.EventTerminated:
		now := threadCPU()
		if c.running {
			f := median(c.calNS) / calRefNS
			c.roundMS = append(c.roundMS, ms(now-c.open-c.calCPU)/f)
			if c.decided {
				c.decideMS = append(c.decideMS, ms(c.decideAt)/f)
			}
		}
		if len(c.calNS) > 0 {
			c.calNS = c.calNS[len(c.calNS)-1:] // the latest chunk stands for the next attempt until it runs its own
		}
		c.open, c.calCPU, c.running, c.decided = now, 0, ev.Kind == core.EventRoundStarted, false
	case core.EventElectionDecided:
		if c.running && !c.decided {
			c.decideAt = threadCPU() - c.open - c.calCPU
			c.decided = true
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stairSetup builds what a run needs — the rule library and the staircase —
// and runs the paper's Fig. 10 instance as the golden set-up check.
func stairSetup(ctx context.Context) (*rules.Library, error) {
	lib := rules.StandardLibrary()
	if _, err := scenario.SlopeStaircase(60, 66); err != nil {
		return nil, err
	}
	fig, err := scenario.Fig10()
	if err != nil {
		return nil, err
	}
	res, err := core.NewEngine(lib).Run(ctx, fig.Surface, fig.Config())
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	if !res.Success || !res.PathBuilt || res.Hops != 109 {
		return nil, fmt.Errorf("fig10 golden: %v, want a successful 109-hop run", res)
	}
	return lib, nil
}

// stairRun is one measured reconfiguration.
type stairRun struct {
	res     core.Result
	wall    time.Duration // the reference chunks excluded
	allocB  uint64
	gcN     uint32
	gcPause time.Duration
	clock   *roundClock   // untraced runs
	tracer  *engineTracer // traced runs
}

func runStairOnce(ctx context.Context, lib *rules.Library, o options, k int, cal *calKernel, traced bool) (stairRun, error) {
	s, err := scenario.SlopeStaircase(60, 66)
	if err != nil {
		return stairRun{}, err
	}
	opts := []core.Option{core.WithSeed(o.seed)}
	if k > 1 {
		opts = append(opts, core.WithParallelMoves(k))
	}
	run := stairRun{}
	if traced {
		run.tracer = newEngineTracer()
		opts = append(opts, run.tracer.options()...)
	} else {
		run.clock = &roundClock{host: hostClock{k: cal}}
		opts = append(opts, core.WithObserver(core.ObserverFunc(run.clock.onEvent)))
	}
	eng := core.NewEngine(lib, opts...)
	// The DES drives every block on this goroutine; pinning it to one OS
	// thread makes that thread's CPU clock the run's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC() // every run starts from the same collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if traced {
		run.tracer.t0 = t0
	}
	res, err := eng.Run(ctx, s.Surface, s.Config())
	run.wall = time.Since(t0)
	if run.clock != nil {
		run.wall -= run.clock.calWall
	}
	if traced {
		run.tracer.finish()
	}
	runtime.ReadMemStats(&m1)
	run.res = res
	run.allocB = m1.TotalAlloc - m0.TotalAlloc
	run.gcN = m1.NumGC - m0.NumGC
	run.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if err != nil {
		return run, err
	}
	if !s.Surface.Connected() {
		return run, fmt.Errorf("final surface is disconnected")
	}
	return run, nil
}

func runStair(ctx context.Context, o options, k int) (*report, error) {
	rep := newReport()
	var lib *rules.Library
	var setups []float64
	cal := newCalKernel()
	setupHost := hostClock{k: cal}
	runtime.LockOSThread()
	for i := 0; i < stairSetups; i++ {
		for j := 0; j < 3; j++ {
			setupHost.sample(stairCalEvents)
		}
		t0 := time.Now()
		l, err := stairSetup(ctx)
		if err != nil {
			runtime.UnlockOSThread()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		lib = l
	}
	runtime.UnlockOSThread()

	// Trace mode alternates untraced and traced runs, so the overhead is
	// measured on the same machine state.
	var plain, traced []stairRun
	start := time.Now()
	minRuns := 1
	if o.trace {
		minRuns = 2
	}
	for i := 0; i < minRuns || time.Since(start) < time.Duration(o.seconds)*time.Second; i++ {
		tr := o.trace && i%2 == 1
		rep.attempted++
		run, err := runStairOnce(ctx, lib, o, k, cal, tr)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			rep.fail("run %d: %v", i, err)
			continue
		}
		if !run.res.Success || !run.res.PathBuilt {
			rep.fail("run %d: %v, want success with the path built", i, run.res)
			continue
		}
		host := 1.0
		if run.clock != nil {
			host = run.clock.host.wallFactor(time.Time{}, time.Time{})
		}
		fmt.Printf("run %d traced=%t wall_s=%.4f host_wall=%.3f alloc_mb=%.2f rounds=%d hops=%d msgs=%d\n", i, tr,
			run.wall.Seconds(), host, float64(run.allocB)/1e6, run.res.Rounds, run.res.Hops, run.res.MessagesSent)
		if tr {
			traced = append(traced, run)
		} else {
			plain = append(plain, run)
		}
	}
	all := append(append([]stairRun(nil), plain...), traced...)
	if len(all) == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("no successful run: %v", rep.problems)
	}
	first := all[0].res
	for i, r := range all {
		if r.res.Rounds != first.Rounds || r.res.Hops != first.Hops || r.res.MessagesSent != first.MessagesSent {
			rep.fail("run %d: rounds/hops/msgs %d/%d/%d differ from the first run's %d/%d/%d",
				i, r.res.Rounds, r.res.Hops, r.res.MessagesSent, first.Rounds, first.Hops, first.MessagesSent)
		}
	}
	if g := stairGolden[k]; o.seed == 1 && (first.Rounds != g.rounds || first.Hops != g.hops ||
		(g.msgs != 0 && first.MessagesSent != g.msgs)) {
		rep.fail("seed 1 golden: rounds/hops/msgs %d/%d/%d, want %d/%d/%d",
			first.Rounds, first.Hops, first.MessagesSent, g.rounds, g.hops, g.msgs)
	}

	if o.trace {
		if len(traced) == 0 {
			return nil, fmt.Errorf("no successful traced run: %v", rep.problems)
		}
		stairLayers(rep, plain, traced)
		return rep, nil
	}

	// Round timings are taken per run and their medians reported, so one
	// run slowed by a noisy neighbour does not move the tail figures. Wall
	// timings are divided by the run's wall factor (calib.go); the
	// attempts' CPU times were normalised as they were taken (roundClock).
	var wall, alloc, p50, p99, decide99, rps, rawWall, fw, fc []float64
	attempts := 0
	var zero time.Time
	for _, r := range plain {
		w, c := r.clock.host.wallFactor(zero, zero), r.clock.host.cpuFactor(zero, zero)
		rawWall, fw, fc = append(rawWall, r.wall.Seconds()), append(fw, w), append(fc, c)
		wall = append(wall, r.wall.Seconds()/w)
		alloc = append(alloc, float64(r.allocB)/1e6)
		p50 = append(p50, median(r.clock.roundMS))
		p99 = append(p99, quantile(r.clock.roundMS, 0.99))
		decide99 = append(decide99, quantile(r.clock.decideMS, 0.99))
		rps = append(rps, float64(r.res.Rounds)/r.wall.Seconds()*w)
		attempts += len(r.clock.roundMS)
	}
	setupF := setupHost.wallFactor(zero, zero)

	rep.info("raw.run_s", "s", median(rawWall))
	rep.info("raw.setup_s", "s", median(setups))
	rep.info("host.wall_factor", "1", median(fw))
	rep.info("host.cpu_factor", "1", median(fc))
	rep.info("host.setup_wall_factor", "1", setupF)
	n := len(plain)
	rep.set("run_s", "s", median(wall), n)
	rep.set("alloc_mb", "MB", median(alloc), n)
	rep.set("rounds", "count", float64(first.Rounds), n)
	rep.set("msgs_per_move", "count", float64(first.MessagesSent)/float64(first.Hops), n)
	rep.set("p50_ms", "ms", median(p50), attempts)
	rep.set("p99_ms", "ms", median(p99), attempts)
	rep.set("first_event_p99_ms", "ms", median(decide99), attempts)
	rep.set("sat_rps", "1/s", median(rps), n)
	rep.set("setup_s", "s", median(setups)/setupF, len(setups))
	return rep, nil
}
