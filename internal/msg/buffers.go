package msg

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/lattice"
)

// Inbound is a received message together with the sender and the side it
// arrived on.
type Inbound struct {
	From lattice.BlockID
	Side geom.Dir
	Msg  Message
}

// Buffers is the memory organisation for data communication of Fig. 8: one
// dedicated FIFO reception buffer per lateral side of the block ("data sent
// by neighbors are stored in a dedicated buffer, e.g., top buffer for the
// neighbor that is above"). Each buffer has a fixed capacity, reflecting the
// small memories of MEMS blocks; pushing into a full buffer fails and the
// message is lost, which the goroutine runtime surfaces as a drop. The DES
// keeps no buffers: it hands each message to its handler within the event
// that delivers it, so a buffer there would never hold more than that one.
//
// Buffers is not safe for concurrent use; the goroutine runtime guards each
// block's buffers with that block's own mailbox goroutine.
type Buffers struct {
	cap   int
	sides [geom.NumDirs][]Inbound
	drops int
	// rr is the side the next Pop starts scanning from, giving round-robin
	// service so one chatty side cannot starve the others.
	rr geom.Dir
}

// DefaultBufferCap is the per-side capacity used by the engines.
const DefaultBufferCap = 64

// NewBuffers returns per-side buffers with the given per-side capacity.
func NewBuffers(capacity int) (*Buffers, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("msg: buffer capacity must be positive, got %d", capacity)
	}
	return &Buffers{cap: capacity}, nil
}

// Push stores a message arriving on the given side. It reports false and
// counts a drop when the side's buffer is full.
func (b *Buffers) Push(in Inbound) bool {
	if !in.Side.Valid() {
		b.drops++
		return false
	}
	q := b.sides[in.Side]
	if len(q) >= b.cap {
		b.drops++
		return false
	}
	b.sides[in.Side] = append(q, in)
	return true
}

// Pop removes and returns the next message, serving the four sides
// round-robin. It reports false when all buffers are empty.
func (b *Buffers) Pop() (Inbound, bool) {
	for i := 0; i < geom.NumDirs; i++ {
		side := (b.rr + geom.Dir(i)) % geom.NumDirs
		if q := b.sides[side]; len(q) > 0 {
			in := q[0]
			copy(q, q[1:])
			b.sides[side] = q[:len(q)-1]
			b.rr = (side + 1) % geom.NumDirs
			return in, true
		}
	}
	return Inbound{}, false
}

// Len returns the total number of buffered messages.
func (b *Buffers) Len() int {
	n := 0
	for _, q := range b.sides {
		n += len(q)
	}
	return n
}

// LenSide returns the number of messages buffered for one side.
func (b *Buffers) LenSide(d geom.Dir) int { return len(b.sides[d]) }

// Drops returns the number of messages lost to full buffers.
func (b *Buffers) Drops() int { return b.drops }
