package runtime_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/rules"
	"repro/internal/runtime"
	"repro/internal/scenario"
)

// TestAsyncFig10 runs the Fig. 10 instance on the goroutine runtime: same
// BlockCode, real concurrency. The run must succeed and build the path.
func TestAsyncFig10(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(1)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatalf("async run: %v (%v)", err, res)
	}
	if !res.Success || !res.PathBuilt {
		t.Fatalf("async run failed: %v", res)
	}
	t.Logf("async: %v", res)
}

// TestAsyncLemmaFamily: a sample of the random instance family also solves
// on the goroutine runtime.
func TestAsyncLemmaFamily(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s, err := scenario.RandomStaircase(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(seed)).Run(context.Background(), s.Surface, s.Config())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Success || !res.PathBuilt {
			t.Errorf("seed %d: %v", seed, res)
		}
	}
}

// TestAsyncTimeout: an unsolvable protocol state (a crashed Root never
// opens an election) hits the wall-clock timeout and reports an error
// instead of hanging.
func TestAsyncTimeout(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// A factory of inert blocks: nobody ever sends anything.
	factory := func(id lattice.BlockID) exec.BlockCode { return exec.BlockCodeFuncs{} }
	eng, err := runtime.NewEngine(s.Surface, rules.StandardLibrary(), factory, runtime.Config{
		Input:   s.Input,
		Output:  s.Output,
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = eng.Run()
	if err == nil {
		t.Fatal("inert system should time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestAsyncMessageCountsPlausible: the async engine's message accounting is
// self-consistent (delivered <= sent, no drops in a healthy run).
func TestAsyncMessageCountsPlausible(t *testing.T) {
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEngine(rules.StandardLibrary(), core.WithBackend(core.Async), core.WithSeed(5)).Run(context.Background(), s.Surface, s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesDropped != 0 {
		t.Errorf("dropped %d in a healthy async run", res.MessagesDropped)
	}
	if res.MessagesSent == 0 {
		t.Error("no messages sent")
	}
}

// TestLazyHostRand: each host seeds its generator on the first Rand call
// with the per-block formula, so a block draws the sequence an eagerly
// created generator would have produced.
func TestLazyHostRand(t *testing.T) {
	const seed = 42
	s, err := scenario.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		draws = map[lattice.BlockID][2]int64{}
		eng   *runtime.Engine
	)
	n := s.Surface.NumBlocks()
	factory := func(id lattice.BlockID) exec.BlockCode {
		return exec.BlockCodeFuncs{Start: func(env exec.Env) {
			r := env.Rand()
			d := [2]int64{r.Int63(), r.Int63()}
			mu.Lock()
			defer mu.Unlock()
			draws[env.ID()] = d
			if len(draws) == n {
				eng.Finish(true, 0)
			}
		}}
	}
	eng, err = runtime.NewEngine(s.Surface, rules.StandardLibrary(), factory, runtime.Config{
		Input: s.Input, Output: s.Output, Seed: seed, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for id, d := range draws {
		want := rand.New(rand.NewSource(seed ^ int64(id)*0x51d2fa7))
		if w := [2]int64{want.Int63(), want.Int63()}; d != w {
			t.Errorf("block %d drew %v, want %v", id, d, w)
		}
	}
}
