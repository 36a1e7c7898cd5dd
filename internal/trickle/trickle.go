// Package trickle implements the Trickle algorithm (Levis et al.):
// polite-gossip timers with suppression and adaptive intervals. The
// Deluge baseline uses it to pace advertisements.
//
// Each interval τ ∈ [tauMin, tauMax]: pick a fire point t uniform in
// [τ/2, τ); count consistent messages heard; at t transmit only if the
// count is below the redundancy constant k; at τ double the interval
// and restart. An inconsistency resets τ to tauMin.
package trickle

import (
	"fmt"
	"math/rand"
	"time"
)

// Deluge's maintenance parameters: hearing k or more consistent
// messages in an interval suppresses our own transmission, and the
// interval stays within [tauMin, tauMax].
const (
	k      = 1
	tauMin = 500 * time.Millisecond
	tauMax = 64 * time.Second
)

// Hooks connect a Trickle instance to its owner's runtime.
type Hooks struct {
	// Rand supplies deterministic randomness.
	Rand *rand.Rand
	// SetFire schedules the fire callback after d (replacing any
	// pending one).
	SetFire func(d time.Duration)
	// SetEnd schedules the interval-end callback after d (replacing
	// any pending one).
	SetEnd func(d time.Duration)
	// Transmit is called when the timer fires unsuppressed.
	Transmit func()
}

// Trickle is a single timer instance. Drive it by calling Fire and
// IntervalEnd from the owner's two timer callbacks.
type Trickle struct {
	hooks Hooks
	tau   time.Duration
	heard int
	fired bool
}

// New validates the hooks and returns a stopped instance; call Start
// to begin the first interval.
func New(hooks Hooks) (*Trickle, error) {
	if hooks.Rand == nil || hooks.SetFire == nil || hooks.SetEnd == nil || hooks.Transmit == nil {
		return nil, fmt.Errorf("trickle: all hooks are required")
	}
	return &Trickle{hooks: hooks}, nil
}

// Start begins the first interval at tauMin.
func (t *Trickle) Start() {
	t.tau = tauMin
	t.beginInterval()
}

// Tau returns the current interval length (for tests and metrics).
func (t *Trickle) Tau() time.Duration { return t.tau }

// Heard returns the consistent-message count in the current interval.
func (t *Trickle) Heard() int { return t.heard }

// Hear records a consistent message, contributing to suppression.
func (t *Trickle) Hear() { t.heard++ }

// Reset reacts to an inconsistency: shrink τ to tauMin and restart,
// unless already there (per the Trickle rules, resetting an
// already-minimal interval would cause a broadcast storm).
func (t *Trickle) Reset() {
	if t.tau == tauMin {
		return
	}
	t.tau = tauMin
	t.beginInterval()
}

// Fire is the owner's fire-timer callback: transmit unless suppressed.
func (t *Trickle) Fire() {
	if t.fired {
		return
	}
	t.fired = true
	if t.heard < k {
		t.hooks.Transmit()
	}
}

// IntervalEnd is the owner's end-timer callback: double τ and restart.
func (t *Trickle) IntervalEnd() {
	t.tau *= 2
	if t.tau > tauMax {
		t.tau = tauMax
	}
	t.beginInterval()
}

func (t *Trickle) beginInterval() {
	t.heard = 0
	t.fired = false
	half := t.tau / 2
	fire := half + time.Duration(t.hooks.Rand.Int63n(int64(half)+1))
	t.hooks.SetFire(fire)
	t.hooks.SetEnd(t.tau)
}
