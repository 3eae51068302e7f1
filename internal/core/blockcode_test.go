package core

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/msg"
)

// TestMovedHopRebuildsMessage: a retained MoveDone flood re-pushes exactly
// the message that was received.
func TestMovedHopRebuildsMessage(t *testing.T) {
	m := msg.Message{Type: msg.TypeMoveDone, Round: 7, Tier: msg.TierDesperate,
		Mover: 42, From: geom.V(3, 4), To: geom.V(4, 4), Success: true}
	b := &BlockCode{}
	if !b.markMoveDone(m) || b.markMoveDone(m) {
		t.Fatal("markMoveDone: want the first flood new and its repeat seen")
	}
	if len(b.moveDoneHops) != 1 {
		t.Fatalf("retained %d floods, want 1", len(b.moveDoneHops))
	}
	if got := b.moveDoneHops[0].message(); !reflect.DeepEqual(got, m) {
		t.Fatalf("re-pushed %+v, want %+v", got, m)
	}
}
