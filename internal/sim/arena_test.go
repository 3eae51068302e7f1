package sim

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/lattice"
	"repro/internal/msg"
	"repro/internal/rules"
)

// reschedulingEvent is a typed self-rescheduling timer: the steady-state
// workload of the throughput benchmark.
type reschedulingEvent struct {
	s         *Scheduler
	remaining int
}

func (e *reschedulingEvent) Fire() {
	if e.remaining <= 0 {
		return
	}
	e.remaining--
	e.s.Schedule(3, e)
}

// TestSchedulerTypedEventAllocs pins the typed event ring's contract: once
// the heap and pools are warm, firing and rescheduling typed events
// allocates nothing (the ROADMAP's scheduler-arena item; the old design
// paid one closure allocation per scheduled event).
func TestSchedulerTypedEventAllocs(t *testing.T) {
	s := NewScheduler(1)
	ev := &reschedulingEvent{s: s, remaining: 1 << 30}
	s.Schedule(0, ev)
	// Warm up: grow the heap backing array and the event pool.
	for i := 0; i < 64; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !s.Step() {
			t.Fatal("queue drained during the allocation probe")
		}
	})
	if allocs != 0 {
		t.Fatalf("typed event steady state allocates %.1f allocs/event, want 0", allocs)
	}
}

// TestSchedulerFuncEventPooling: the legacy closure API reuses its wrappers
// — scheduling N sequential After calls must not leak one wrapper per call.
func TestSchedulerFuncEventPooling(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			s.After(1, tick)
		}
	}
	s.After(0, tick)
	s.Run(0)
	if fired != 1000 {
		t.Fatalf("fired %d of 1000 closure events", fired)
	}
	if got := len(s.fpool); got != 1 {
		t.Fatalf("func-event pool holds %d wrappers after a sequential run, want 1", got)
	}
}

// TestSchedulerTypedAndClosureInterleave: both scheduling APIs share one
// ordered heap.
func TestSchedulerTypedAndClosureInterleave(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.After(10, func() { order = append(order, 2) })
	s.Schedule(5, eventFunc(func() { order = append(order, 1) }))
	s.After(20, func() { order = append(order, 3) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("mixed-API order = %v, want [1 2 3]", order)
	}
}

// eventFunc adapts a closure to Event for tests (without pooling).
type eventFunc func()

func (f eventFunc) Fire() { f() }

// activateEcho bounces a serial-protocol (k = 1) Activate between two
// blocks forever: the block on the input cell starts it, and every receiver
// returns it with the round bumped.
type activateEcho struct{}

func (activateEcho) OnStart(env exec.Env) {
	if env.Position() != env.Input() {
		return
	}
	if nb := env.Neighbors()[geom.East]; nb != lattice.None {
		_ = env.Send(nb, msg.Message{Type: msg.TypeActivate, Round: 1, Father: env.ID(), Son: nb,
			Output: env.Output(), ShortestDistance: 9, IDShortest: env.ID()})
	}
}

func (activateEcho) OnMessage(env exec.Env, from lattice.BlockID, m msg.Message) {
	m.Round++
	m.Father, m.Son = env.ID(), from
	_ = env.Send(from, m)
}

func (activateEcho) OnMoved(exec.Env, geom.Vec, geom.Vec) {}
func (activateEcho) OnNeighborhoodChanged(exec.Env)       {}

// TestWarmDeliveryAllocs pins the message hot path: once the event arena
// and the reception buffers are warm, delivering a k = 1 Activate — the
// scheduler event, the buffer push and pop, the OnMessage hook and the
// reply's Send — allocates nothing.
func TestWarmDeliveryAllocs(t *testing.T) {
	eng, err := NewEngine(pairSurface(t), rules.StandardLibrary(),
		func(lattice.BlockID) exec.BlockCode { return activateEcho{} },
		Config{Input: geom.V(1, 1), Output: geom.V(5, 5), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(); err != nil {
		t.Fatal(err)
	}
	s := eng.Scheduler()
	for i := 0; i < 64; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !s.Step() {
			t.Fatal("the echo stopped during the allocation probe")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm k=1 Activate delivery allocates %.1f times, want 0", allocs)
	}
	if eng.MessagesDelivered() < 1000 {
		t.Fatalf("delivered %d messages, want >= 1000", eng.MessagesDelivered())
	}
}
