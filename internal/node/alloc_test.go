package node

import (
	"runtime"
	"testing"
	"time"

	"mnp/internal/packet"
	"mnp/internal/race"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// nopProto ignores everything, so a test counts only what the runtime
// buys.
type nopProto struct{}

func (nopProto) Init(Runtime) error                    { return nil }
func (nopProto) OnPacket(packet.Packet, packet.NodeID) {}
func (nopProto) OnTimer(TimerID)                       {}

// mnpTimers is the number of timer IDs MNP arms, 1 to 8.
const mnpTimers = 8

// newNopNetwork builds count motes of nopProto on a line through
// NewNetwork, on a kernel sized so that its own growth is not counted,
// and draws each mote's random source once so that it is not either.
func newNopNetwork(t *testing.T, count int) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewSized(1, count*(mnpTimers+2))
	l, err := topology.Line(count, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := radio.NewMedium(k, l, cleanRadio(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(l, func(packet.NodeID) (Protocol, Config) {
		return nopProto{}, Config{TxPower: radio.PowerSim}
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, Observer) { return k, m, nil })
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	for _, n := range nw.Nodes {
		n.Rand()
	}
	return k, nw
}

// TestMotePlumbingAllocsPerMote pins what a mote's own plumbing buys:
// 1 000 motes each arm every MNP timer ID and queue 5 frames, and the
// timers fire. The timer and CSMA callbacks are the network's, one set
// for every mote, and timer tables, queue slots and frame buffers are
// carved from chunks the motes' kernel shares, so a mote costs a few
// hundredths of an object (0.05). A closure and a table growth per
// timer ID, a method value per CSMA callback, and a buffer per queue
// slot cost 23.
func TestMotePlumbingAllocsPerMote(t *testing.T) {
	const motes, frames, budget = 1000, 5, 0.1
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	k, nw := newNopNetwork(t, motes)
	p := &packet.Query{ProgramID: 1, SegID: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, n := range nw.Nodes {
		for id := TimerID(1); id <= mnpTimers; id++ {
			n.SetTimer(id, time.Duration(id)*time.Second)
		}
		for i := 0; i < frames; i++ {
			p.Src = n.ID()
			if err := n.Send(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Run(time.Minute)
	runtime.ReadMemStats(&after)
	perMote := float64(after.Mallocs-before.Mallocs) / motes
	t.Logf("%.3f objects/mote", perMote)
	if perMote > budget {
		t.Fatalf("a mote's timers and MAC queue make %.3f heap objects, budget %.2f", perMote, budget)
	}
	for _, n := range nw.Nodes {
		if n.QueueLen() != frames || n.TimerPending(1) {
			t.Fatalf("mote %v: %d frames queued, timer 1 pending %v; want %d, false (radios are off)",
				n.ID(), n.QueueLen(), n.TimerPending(1), frames)
		}
	}
}

// A crash empties the MAC queue and cancels the timers but keeps the
// slots, their buffers and the timer table: a rebooted mote that sends
// and arms as much as before buys nothing.
func TestCrashKeepsQueueSlots(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	k, nw := newNopNetwork(t, 2)
	n := nw.Node(1)
	p := &packet.Query{Src: 1, ProgramID: 1, SegID: 1}
	cycle := func() {
		for id := TimerID(1); id <= mnpTimers; id++ {
			n.SetTimer(id, time.Second)
		}
		for i := 0; i < 8; i++ {
			if err := n.Send(p); err != nil {
				t.Fatal(err)
			}
		}
		n.Crash()
		if err := n.Restart(nopProto{}); err != nil {
			t.Fatal(err)
		}
		k.Run(k.Now() + time.Hour) // retire the cancelled entries
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("a crash-reboot-send cycle allocates %.1f objects, want 0", allocs)
	}
	if n.QueueLen() != 0 || n.TimerPending(1) {
		t.Fatalf("after a crash: %d frames queued, timer pending %v; want 0, false", n.QueueLen(), n.TimerPending(1))
	}
}
