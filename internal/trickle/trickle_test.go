package trickle

import (
	"math/rand"
	"testing"
	"time"
)

type harness struct {
	tr        *Trickle
	fireDelay time.Duration
	endDelay  time.Duration
	sent      int
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{}
	tr, err := New(Hooks{
		Rand:     rand.New(rand.NewSource(1)),
		SetFire:  func(d time.Duration) { h.fireDelay = d },
		SetEnd:   func(d time.Duration) { h.endDelay = d },
		Transmit: func() { h.sent++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	h.tr = tr
	return h
}

func TestNewValidation(t *testing.T) {
	hooks := Hooks{
		Rand:     rand.New(rand.NewSource(1)),
		SetFire:  func(time.Duration) {},
		SetEnd:   func(time.Duration) {},
		Transmit: func() {},
	}
	bad := hooks
	bad.Transmit = nil
	if _, err := New(bad); err == nil {
		t.Error("missing hook accepted")
	}
}

func TestStartSchedulesWithinBounds(t *testing.T) {
	h := newHarness(t)
	h.tr.Start()
	if h.tr.Tau() != tauMin {
		t.Fatalf("tau = %v", h.tr.Tau())
	}
	if h.fireDelay < h.tr.Tau()/2 || h.fireDelay > h.tr.Tau() {
		t.Fatalf("fire delay %v outside [τ/2, τ]", h.fireDelay)
	}
	if h.endDelay != h.tr.Tau() {
		t.Fatalf("end delay %v != τ", h.endDelay)
	}
}

func TestFireTransmitsWhenQuiet(t *testing.T) {
	h := newHarness(t)
	h.tr.Start()
	h.tr.Fire()
	if h.sent != 1 {
		t.Fatalf("sent = %d", h.sent)
	}
	// Double fire in one interval is ignored.
	h.tr.Fire()
	if h.sent != 1 {
		t.Fatalf("double-fired: sent = %d", h.sent)
	}
}

func TestSuppressionAtK(t *testing.T) {
	h := newHarness(t)
	h.tr.Start()
	for i := 0; i < k-1; i++ {
		h.tr.Hear()
	}
	h.tr.Fire()
	if h.sent != 1 {
		t.Fatal("suppressed below k")
	}
	h.tr.IntervalEnd()
	for i := 0; i < k; i++ {
		h.tr.Hear()
	}
	if h.tr.Heard() != k {
		t.Fatalf("Heard = %d", h.tr.Heard())
	}
	h.tr.Fire()
	if h.sent != 1 {
		t.Fatal("transmitted at k consistent messages")
	}
}

func TestIntervalDoublingAndCap(t *testing.T) {
	h := newHarness(t)
	h.tr.Start()
	want := []time.Duration{1, 2, 4, 8, 16, 32, 64, 64, 64}
	for i, w := range want {
		h.tr.IntervalEnd()
		if h.tr.Tau() != w*time.Second {
			t.Fatalf("after %d ends: tau = %v, want %vs", i+1, h.tr.Tau(), w)
		}
	}
}

func TestResetShrinksToMin(t *testing.T) {
	h := newHarness(t)
	h.tr.Start()
	h.tr.IntervalEnd()
	h.tr.IntervalEnd()
	if h.tr.Tau() != 2*time.Second {
		t.Fatalf("setup: tau = %v", h.tr.Tau())
	}
	h.tr.Hear()
	h.tr.Reset()
	if h.tr.Tau() != tauMin {
		t.Fatalf("tau after reset = %v", h.tr.Tau())
	}
	if h.tr.Heard() != 0 {
		t.Fatal("heard count survived reset")
	}
	// Reset at TauMin is a no-op (no interval restart storm).
	before := h.fireDelay
	h.tr.Hear()
	h.tr.Reset()
	if h.tr.Heard() != 1 {
		t.Fatal("no-op reset cleared state")
	}
	_ = before
}

func TestHeardClearsEachInterval(t *testing.T) {
	h := newHarness(t)
	h.tr.Start()
	h.tr.Hear()
	h.tr.IntervalEnd()
	if h.tr.Heard() != 0 {
		t.Fatal("heard count not cleared at interval end")
	}
	h.tr.Fire()
	if h.sent != 1 {
		t.Fatal("suppression leaked across intervals")
	}
}
