package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianDurationDropsPreemptedSlice(t *testing.T) {
	ms := time.Millisecond
	if got := medianDuration([]time.Duration{ms, 21 * ms, ms, ms, ms}); got != ms {
		t.Fatalf("median with one preempted slice = %v, want %v", got, ms)
	}
}

func TestCalibratorReads(t *testing.T) {
	c := newCalibrator()
	a, b := c.read(), c.read()
	if a <= 0 || b <= 0 {
		t.Fatalf("readings %v, %v must be positive", a, b)
	}
	// Consecutive readings on any machine this runs on agree far better
	// than 3×; the kernels would be useless otherwise.
	if a > 3*b || b > 3*a {
		t.Fatalf("consecutive readings %v and %v disagree by more than 3×", a, b)
	}
}

func TestSlownessAndBracket(t *testing.T) {
	if s := slowness(chainRef, streamRef); s != 1 {
		t.Errorf("slowness at reference speed = %v, want 1", s)
	}
	if s := slowness(2*chainRef, 2*streamRef); math.Abs(s-2) > 1e-12 {
		t.Errorf("slowness at half speed = %v, want 2", s)
	}
	// A slower core moves the reading more than slower memory does.
	if core, mem := slowness(2*chainRef, streamRef), slowness(chainRef, 2*streamRef); core <= mem {
		t.Errorf("slowness: core at half speed %v, memory at half speed %v", core, mem)
	}
	if f := (bracket{before: 1, after: 1}).factor(); f != 1 {
		t.Errorf("factor at reference speed = %v, want 1", f)
	}
	if f := (bracket{before: 2, after: 2}).factor(); f != 0.5 {
		t.Errorf("factor at half speed = %v, want 0.5", f)
	}
	for _, tc := range []struct {
		before, after float64
		unstable      bool
	}{
		{1, 1, false},
		{1, 0.9, false}, // 11 % apart
		{0.8, 1, true},  // 25 % apart
		{1, 0.8, true},
	} {
		if got := (bracket{tc.before, tc.after}).unstable(); got != tc.unstable {
			t.Errorf("bracket{%v, %v}.unstable() = %v, want %v", tc.before, tc.after, got, tc.unstable)
		}
	}
}

func TestServingSpeed(t *testing.T) {
	if s := servingSpeed(echoRef, 1); s != 1 {
		t.Errorf("serving speed at reference speed = %v, want 1", s)
	}
	if s := servingSpeed(echoRef/2, 2); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("serving speed at half speed = %v, want 0.5", s)
	}
}
