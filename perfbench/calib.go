package main

import (
	"runtime"
	"time"
)

// Host-speed normalisation.
//
// The benchmark runs on a few vCPUs of a shared host whose speed drifts by
// up to a factor of two over tens of seconds, as neighbours come and go: the
// cores slow down, and the hypervisor takes them away for a share of the
// time (steal). A run's timings follow that drift more than they follow the
// program. So every timed section is interleaved with short chunks of a
// fixed reference kernel, run on the measuring OS thread while the program
// under test waits, and each timing is divided by a host factor:
//
//   - wall timings by the kernel's mean wall time per event over calRefNS,
//     which counts both slower cores and stolen time;
//   - thread CPU timings by the kernel's median thread CPU time per event
//     over calRefNS, which counts slower cores only, as those timings do.
//
// The reported figures are thus seconds at a reference host speed; the raw
// figures and the factors are printed and kept in the result file. The
// kernel shares no code with the program, so a change to the program moves
// the normalised figures as it moves the raw ones on a steady host.

// calRefNS is the reference speed: about the kernel's cost per event on a
// quiet 2-vCPU Xeon cloud VM.
const calRefNS = 375.0

// hostClock records reference-kernel chunks and turns them into host
// factors.
type hostClock struct {
	k      *calKernel
	chunks []calChunk
}

type calChunk struct {
	at        time.Time
	n         int
	cpu, wall time.Duration
}

// sample runs one chunk of n events on the calling goroutine, which the
// caller has locked to its OS thread, and returns its wall and CPU time.
func (h *hostClock) sample(n int) (wall, cpu time.Duration) {
	t0 := time.Now()
	cpu = h.k.run(n)
	wall = time.Since(t0)
	h.chunks = append(h.chunks, calChunk{at: t0, n: n, cpu: cpu, wall: wall})
	return wall, cpu
}

// sampleLocked is sample for a goroutine that is not locked to its thread.
func (h *hostClock) sampleLocked(n int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	h.sample(n)
}

// in returns the chunks that started in [from, to), or every chunk when
// none did; a zero bound is open.
func (h *hostClock) in(from, to time.Time) []calChunk {
	var out []calChunk
	for _, c := range h.chunks {
		if !c.at.Before(from) && (to.IsZero() || c.at.Before(to)) {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return h.chunks
	}
	return out
}

// wallFactor divides wall timings taken between from and to; 1 when
// nothing was sampled.
func (h *hostClock) wallFactor(from, to time.Time) float64 {
	var wall time.Duration
	n := 0
	for _, c := range h.in(from, to) {
		wall += c.wall
		n += c.n
	}
	if n == 0 {
		return 1
	}
	return float64(wall) / float64(n) / calRefNS
}

// cpuFactor divides thread CPU timings taken between from and to; 1 when
// nothing was sampled.
func (h *hostClock) cpuFactor(from, to time.Time) float64 {
	var per []float64
	for _, c := range h.in(from, to) {
		per = append(per, float64(c.cpu)/float64(c.n))
	}
	if len(per) == 0 {
		return 1
	}
	return median(per) / calRefNS
}

// calKernel is a fixed reference computation that gauges how fast the host
// runs at the moment, independently of the code under test. It is shaped
// like the DES's inner loop — a binary heap of timed events, map lookups
// into a sparse grid and reads and writes of message records spread over
// more memory than a core's L2 cache — and allocates nothing, so running it leaves the Go heap
// and the collector's pacing untouched.
type calKernel struct {
	grid map[int32]int32
	msgs []calMsg
	heap []calEvent
	x    uint64 // xorshift64* state
	sink uint64 // keeps the results live
}

type calMsg struct {
	from, to int32
	seq      uint64
	pad      [6]uint64
}

type calEvent struct {
	at  uint64
	dst int32
	msg int32
}

const (
	calSide  = 64      // the grid is calSide × calSide cells, half of them set
	calMsgs  = 1 << 17 // 8 MB of message records: more than a core's L2
	calQueue = 2048    // events in flight
)

func newCalKernel() *calKernel {
	k := &calKernel{
		grid: make(map[int32]int32, calSide*calSide/2),
		msgs: make([]calMsg, calMsgs),
		heap: make([]calEvent, 0, calQueue+1),
		x:    0x9e3779b97f4a7c15,
	}
	for i := int32(0); i < calSide*calSide; i += 2 {
		k.grid[i] = i
	}
	for i := 0; i < calQueue; i++ {
		r := k.rnd()
		k.push(calEvent{at: r % 1024, dst: int32(r>>32) & (calSide*calSide - 1), msg: int32(r>>20) & (calMsgs - 1)})
	}
	return k
}

func (k *calKernel) rnd() uint64 {
	k.x ^= k.x >> 12
	k.x ^= k.x << 25
	k.x ^= k.x >> 27
	return k.x * 2685821657736338717
}

func (k *calKernel) push(e calEvent) {
	h := append(k.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *calKernel) pop() calEvent {
	h := k.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < last && h[l].at < h[m].at {
			m = l
		}
		if l+1 < last && h[l+1].at < h[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	k.heap = h
	return top
}

// run delivers n events and returns the CPU time the calling thread spent
// on them; the caller must be locked to its OS thread.
func (k *calKernel) run(n int) time.Duration {
	c0 := threadCPU()
	const mask = calSide*calSide - 1
	for i := 0; i < n; i++ {
		e := k.pop()
		m := &k.msgs[e.msg]
		for _, d := range [4]int32{1, -1, calSide, -calSide} {
			if v, ok := k.grid[(e.dst+d)&mask]; ok {
				k.sink += uint64(v)
			}
		}
		k.sink += m.seq + m.pad[0]
		if i&15 == 0 {
			k.grid[e.dst] = int32(i)
		}
		r := k.rnd()
		next := int32(r>>20) & (calMsgs - 1)
		k.msgs[next] = calMsg{from: e.dst, to: int32(r >> 40), seq: m.seq + 1, pad: [6]uint64{r}}
		k.push(calEvent{at: e.at + 1 + r%1024, dst: int32(r>>32) & mask, msg: next})
	}
	return threadCPU() - c0
}
