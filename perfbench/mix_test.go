package main

import (
	"reflect"
	"testing"
	"time"
)

// sequence draws an open-loop schedule followed by closed-loop requests, as
// runSvc does.
func sequence(seed int64) []svcReq {
	g := newMixGen(seed, len(headSpecs()))
	s := g.openSchedule(openRate, 2*time.Second)
	for i := 0; i < 200; i++ {
		s = append(s, g.draw())
	}
	return s
}

func TestMixSameSeedSameSequence(t *testing.T) {
	a, b := sequence(7), sequence(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave two different request sequences")
	}
}

func TestMixDifferentSeedsDiffer(t *testing.T) {
	a, b := sequence(7), sequence(8)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
}

func TestMixShape(t *testing.T) {
	s := sequence(1)
	head, cold := 0, map[int]bool{}
	for _, r := range s {
		switch {
		case r.Head >= 0:
			head++
			if r.Head >= len(headSpecs()) {
				t.Fatalf("head rank %d outside the %d-spec head", r.Head, len(headSpecs()))
			}
		case cold[r.Cold]:
			t.Fatalf("cold seed %d repeated", r.Cold)
		default:
			cold[r.Cold] = true
		}
	}
	if frac := float64(head) / float64(len(s)); frac < 0.75 || frac > 0.85 {
		t.Errorf("head share %.3f, want about %.2f", frac, hitFrac)
	}
	if n := float64(len(s) - 200); n < 0.8*2*openRate || n > 1.2*2*openRate {
		t.Errorf("%.0f open-loop arrivals in 2s, want about %.0f", n, 2*openRate)
	}
}
