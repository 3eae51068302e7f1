package main

import (
	"context"
	"fmt"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// Engine hooks, in the order of the per-hook metrics. The six message hooks
// follow msg.Type, so hook = int(type) for OnMessage.
const (
	hookStart = iota
	hookActivate
	hookAck
	hookSelect
	hookSelectAck
	hookMoveDone
	hookFinished
	hookMoved
	hookNeighborhood
	numHooks
)

var hookNames = [numHooks]string{"start", "activate", "ack", "select", "select_ack",
	"move_done", "finished", "moved", "neighborhood"}

// Env calls that are timed; Sense is only counted (it is a register read,
// and timing each call would cost more than the call).
const (
	envSend = iota
	envMove
	envValidateMoveSet
	envCutVertex
	numEnv
)

var envNames = [numEnv]string{"send", "move", "validate_move_set", "cut_vertex"}

// tally is a count and the nanoseconds spent on it.
type tally struct {
	N  int64 `json:"n"`
	NS int64 `json:"ns"`
}

func (t *tally) add(d time.Duration) { t.N++; t.NS += int64(d) }

// roundSpan aggregates the engine hook and Env time of one election
// attempt. Its parent is the run's drive span; the observer's
// round-started events open and close it, so a traced run keeps a few
// hundred of these instead of one span per message.
type roundSpan struct {
	ID      int             `json:"id"`
	Parent  int             `json:"parent"`
	Name    string          `json:"name"`
	Round   int             `json:"round"`
	Tier    int             `json:"tier"`
	StartNS int64           `json:"start_ns"` // relative to the run span's start
	EndNS   int64           `json:"end_ns"`
	Hooks   [numHooks]tally `json:"hooks"` // wall time, Env calls included
	HookEnv [numHooks]int64 `json:"hook_env_ns"`
	Env     [numEnv]tally   `json:"env"`
}

// engineTracer records one traced Engine.Run. The DES drives every block
// on the caller's goroutine, so the tracer needs no locking.
type engineTracer struct {
	t0 time.Time

	newNS, bootNS, driveNS int64
	hooks                  [numHooks]tally
	hookEnv                [numHooks]int64
	env                    [numEnv]tally
	sent                   [msg.TypeFinished + 1]int64
	wireBytes              int64
	senseN                 int64
	moveFailed             int64
	vmsPlanned, vmsValid   int64
	events                 [core.EventLog + 1]int64
	nested                 int64 // hooks entered while another ran (must stay 0)
	delivered              uint64

	inHook   bool
	hookEnv0 int64 // Env nanoseconds charged to the running hook so far

	spans []*roundSpan
	cur   *roundSpan
}

const (
	spanRun   = 1
	spanBoot  = 2
	spanDrive = 3
)

func newEngineTracer() *engineTracer {
	t := &engineTracer{t0: time.Now()}
	t.cur = &roundSpan{ID: 4, Parent: spanDrive, Name: "startup"}
	t.spans = append(t.spans, t.cur)
	return t
}

func (t *engineTracer) rel() int64 { return int64(time.Since(t.t0)) }

// options returns the engine options that wrap every layer entry point.
func (t *engineTracer) options() []core.Option {
	return []core.Option{
		core.WithBackend(func(p core.BackendParams) (core.Backend, error) {
			t0 := time.Now()
			b, err := core.DES(p)
			t.newNS += int64(time.Since(t0))
			if err != nil {
				return nil, err
			}
			return &tracedBackend{Backend: b, t: t}, nil
		}),
		core.WithFaultWrap(func(f exec.CodeFactory) exec.CodeFactory {
			return func(id lattice.BlockID) exec.BlockCode {
				return &tracedCode{inner: f(id), t: t}
			}
		}),
		core.WithObserver(core.ObserverFunc(t.onEvent)),
	}
}

// onEvent counts observer events and rotates the round spans.
func (t *engineTracer) onEvent(ev core.Event) {
	t.events[ev.Kind]++
	switch ev.Kind {
	case core.EventRoundStarted:
		now := t.rel()
		t.cur.EndNS = now
		t.cur = &roundSpan{ID: len(t.spans) + 4, Parent: spanDrive, Name: "round",
			Round: ev.Round, Tier: int(ev.Tier), StartNS: now}
		t.spans = append(t.spans, t.cur)
	case core.EventMessageStats:
		t.delivered = ev.Delivered
	case core.EventTerminated:
		now := t.rel()
		t.cur.EndNS = now
		t.cur = &roundSpan{ID: len(t.spans) + 4, Parent: spanDrive, Name: "drain", StartNS: now}
		t.spans = append(t.spans, t.cur)
	}
}

// finish closes the last round span at the end of the run.
func (t *engineTracer) finish() { t.cur.EndNS = t.rel() }

func (t *engineTracer) beginHook() time.Time {
	if t.inHook {
		t.nested++
	}
	t.inHook = true
	t.hookEnv0 = 0
	return time.Now()
}

func (t *engineTracer) endHook(k int, start time.Time) {
	d := time.Since(start)
	t.inHook = false
	t.hooks[k].add(d)
	t.hookEnv[k] += t.hookEnv0
	t.cur.Hooks[k].add(d)
	t.cur.HookEnv[k] += t.hookEnv0
}

func (t *engineTracer) envDone(k int, start time.Time) {
	d := time.Since(start)
	t.env[k].add(d)
	t.cur.Env[k].add(d)
	t.hookEnv0 += int64(d)
}

// tracedBackend times the DES's Boot and Drive.
type tracedBackend struct {
	core.Backend
	t *engineTracer
}

func (b *tracedBackend) Boot() error {
	t0 := time.Now()
	err := b.Backend.Boot()
	b.t.bootNS += int64(time.Since(t0))
	return err
}

func (b *tracedBackend) Drive(ctx context.Context) error {
	t0 := time.Now()
	err := b.Backend.Drive(ctx)
	b.t.driveNS += int64(time.Since(t0))
	return err
}

// tracedCode times every hook of one block and hands the block a traced
// view of its Env. The engine passes the same Env to every hook of a
// block, so the view is built once and stays stable for code that keeps it.
type tracedCode struct {
	inner exec.BlockCode
	t     *engineTracer
	env   tracedEnv
}

func (c *tracedCode) view(env exec.Env) exec.Env {
	if c.env.Env != env {
		c.env = tracedEnv{Env: env, t: c.t}
	}
	return &c.env
}

func (c *tracedCode) OnStart(env exec.Env) {
	s := c.t.beginHook()
	c.inner.OnStart(c.view(env))
	c.t.endHook(hookStart, s)
}

func (c *tracedCode) OnMessage(env exec.Env, from lattice.BlockID, m msg.Message) {
	k := hookActivate
	if m.Type.Valid() {
		k = int(m.Type) // hookActivate..hookFinished follow msg.Type
	}
	s := c.t.beginHook()
	c.inner.OnMessage(c.view(env), from, m)
	c.t.endHook(k, s)
}

func (c *tracedCode) OnMoved(env exec.Env, from, to geom.Vec) {
	s := c.t.beginHook()
	c.inner.OnMoved(c.view(env), from, to)
	c.t.endHook(hookMoved, s)
}

func (c *tracedCode) OnNeighborhoodChanged(env exec.Env) {
	s := c.t.beginHook()
	c.inner.OnNeighborhoodChanged(c.view(env))
	c.t.endHook(hookNeighborhood, s)
}

// tracedEnv times the Env calls that leave the block: message transport
// (Send) and the physical layer (Move, ValidateMoveSet, CutVertex).
type tracedEnv struct {
	exec.Env
	t *engineTracer
}

func (e *tracedEnv) Send(to lattice.BlockID, m msg.Message) error {
	s := time.Now()
	err := e.Env.Send(to, m)
	e.t.envDone(envSend, s)
	if err == nil && m.Type.Valid() {
		e.t.sent[m.Type]++
		e.t.wireBytes += int64(m.WireSize())
	}
	return err
}

func (e *tracedEnv) Move(app rules.Application) error {
	s := time.Now()
	err := e.Env.Move(app)
	e.t.envDone(envMove, s)
	if err != nil {
		e.t.moveFailed++
	}
	return err
}

func (e *tracedEnv) ValidateMoveSet(moves []lattice.PlannedMove) int {
	s := time.Now()
	n := e.Env.ValidateMoveSet(moves)
	e.t.envDone(envValidateMoveSet, s)
	e.t.vmsPlanned += int64(len(moves))
	e.t.vmsValid += int64(n)
	return n
}

func (e *tracedEnv) CutVertex() bool {
	s := time.Now()
	v := e.Env.CutVertex()
	e.t.envDone(envCutVertex, s)
	return v
}

func (e *tracedEnv) Sense(v geom.Vec) bool {
	e.t.senseN++
	return e.Env.Sense(v)
}

// messageBytes is the in-memory size of one msg.Message passed by value.
const messageBytes = int64(unsafe.Sizeof(msg.Message{}))

// accountingTolerance is how far boot + drive may fall short of the traced
// run's wall time: the rest of Engine.Run (instance validation, constraint
// and connectivity warm-up, backend construction) must stay below it.
const accountingTolerance = 0.05

// check verifies the trace accounts for the run: boot + drive cover the
// traced wall time within accountingTolerance, every Env call happened
// inside a hook, and no part is negative, so hook self time, Env time and
// sim.self_s sum to sim.drive_s.
func (t *engineTracer) check(runNS int64) []string {
	var bad []string
	if cov := float64(t.bootNS+t.driveNS) / float64(runNS); cov < 1-accountingTolerance || cov > 1 {
		bad = append(bad, fmt.Sprintf("trace: boot+drive cover %.4f of the traced run, want within %.2f", cov, accountingTolerance))
	}
	var hookNS, hookEnvNS, envNS int64
	for k := range t.hooks {
		hookNS += t.hooks[k].NS
		hookEnvNS += t.hookEnv[k]
		if t.hooks[k].NS < t.hookEnv[k] {
			bad = append(bad, fmt.Sprintf("trace: hook %s self time is negative", hookNames[k]))
		}
	}
	for k := range t.env {
		envNS += t.env[k].NS
	}
	if hookEnvNS != envNS {
		bad = append(bad, fmt.Sprintf("trace: %d ns of Env calls ran outside hooks", envNS-hookEnvNS))
	}
	if self := t.driveNS - hookNS; self < 0 {
		bad = append(bad, fmt.Sprintf("trace: hooks (%d ns) exceed drive (%d ns)", hookNS, t.driveNS))
	}
	if t.nested != 0 {
		bad = append(bad, fmt.Sprintf("trace: %d hooks nested inside another", t.nested))
	}
	return bad
}
