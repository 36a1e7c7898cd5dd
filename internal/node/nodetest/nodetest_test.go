package nodetest

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
)

// recorder is a minimal protocol that logs what the runtime feeds it.
type recorder struct {
	rt      node.Runtime
	inits   int
	timers  []node.TimerID
	packets []packet.Packet
	froms   []packet.NodeID
}

func (r *recorder) Init(rt node.Runtime) { r.rt = rt; r.inits++ }
func (r *recorder) OnTimer(id node.TimerID) {
	r.timers = append(r.timers, id)
}
func (r *recorder) OnPacket(p packet.Packet, from packet.NodeID) {
	r.packets = append(r.packets, p)
	r.froms = append(r.froms, from)
}

func TestAttachRunsInit(t *testing.T) {
	rt := New(3)
	rec := &recorder{}
	rt.Attach(rec)
	if rec.inits != 1 {
		t.Fatalf("Init ran %d times", rec.inits)
	}
	if rec.rt.ID() != 3 {
		t.Fatalf("runtime ID = %v", rec.rt.ID())
	}
}

func TestSendCapturesPacketsAndPower(t *testing.T) {
	rt := New(1)
	rt.SetTxPower(7)
	if err := rt.Send(&packet.Query{Src: 1, ProgramID: 1, SegID: 1}); err != nil {
		t.Fatal(err)
	}
	rt.SetTxPower(200)
	if err := rt.Send(&packet.StartSignal{Src: 1, ProgramID: 1}); err != nil {
		t.Fatal(err)
	}
	if len(rt.Sent) != 2 || rt.Sent[0].Kind() != packet.KindQuery {
		t.Fatalf("Sent = %v", rt.Sent)
	}
	if len(rt.Frames) != 2 || !bytes.Equal(rt.Frames[1], packet.Encode(rt.Sent[1])) {
		t.Fatalf("Frames = %x, want the encodings of Sent", rt.Frames)
	}
	if rt.Powers[0] != 7 || rt.Powers[1] != 200 {
		t.Fatalf("Powers = %v, want the power at each send", rt.Powers)
	}
}

func TestTimersFireSoonestFirstAndAdvanceClock(t *testing.T) {
	rt := New(1)
	rec := &recorder{}
	rt.Attach(rec)
	rt.SetTimer(node.TimerID(2), 30*time.Second)
	rt.SetTimer(node.TimerID(1), 10*time.Second)
	rt.SetTimer(node.TimerID(3), 20*time.Second)
	if got := rt.PendingTimers(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("PendingTimers = %v", got)
	}
	if !rt.TimerPending(2) {
		t.Fatal("TimerPending(2) = false")
	}
	rt.CancelTimer(node.TimerID(3))
	for rt.FireNext() {
	}
	if len(rec.timers) != 2 || rec.timers[0] != 1 || rec.timers[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", rec.timers)
	}
	if rt.Clock != 30*time.Second {
		t.Fatalf("clock = %v, want 30s", rt.Clock)
	}
}

func TestFireDispatchesSpecificTimer(t *testing.T) {
	rt := New(1)
	rec := &recorder{}
	rt.Attach(rec)
	rt.SetTimer(node.TimerID(5), time.Second)
	if !rt.Fire(node.TimerID(5)) {
		t.Fatal("Fire(5) = false")
	}
	if rt.Fire(node.TimerID(5)) {
		t.Fatal("Fire(5) fired twice")
	}
	if len(rec.timers) != 1 || rec.timers[0] != 5 {
		t.Fatalf("fired %v", rec.timers)
	}
}

func TestDeliverRoutesToProtocol(t *testing.T) {
	rt := New(1)
	rec := &recorder{}
	rt.Attach(rec)
	rt.Deliver(&packet.Query{Src: 9, ProgramID: 1, SegID: 1}, 9)
	if len(rec.packets) != 1 || rec.froms[0] != 9 {
		t.Fatalf("delivered %v from %v", rec.packets, rec.froms)
	}
	// No protocol attached: Deliver and FireNext are harmless no-ops.
	bare := New(2)
	bare.Deliver(&packet.Query{}, 0)
	bare.SetTimer(1, time.Second)
	if bare.FireNext() {
		t.Fatal("FireNext fired with no protocol attached")
	}
}

// TestRuntimeContract holds the fake runtime to what node.Node
// promises: the frames its Send records are the encodings of the
// packets as they were at Send, a Full queue refuses without encoding,
// and storage and timers behave as on a mote. A crash is modelled as a
// mote's power failure: the queue refuses, timers and radio are lost,
// and the EEPROM store is kept for the protocol the restart attaches.
func TestRuntimeContract(t *testing.T) {
	RunContract(t, Contract{New: func(t *testing.T, p node.Protocol) Subject {
		rt := New(1)
		rt.Attach(p)
		aired := 0
		return Subject{
			Aired: func() [][]byte {
				f := rt.Frames[aired:]
				aired = len(rt.Frames)
				return f
			},
			Advance:  rt.Advance,
			Refusals: []Refusal{{Name: "queue-full", Apply: func() { rt.Full = true }}},
			Crash: func() func(node.Protocol) {
				rt.Full, rt.Radio = true, false
				clear(rt.timers)
				return func(p node.Protocol) {
					rt.Full = false
					rt.Attach(p)
				}
			},
		}
	}})
}

func TestRuntimeStateAccessors(t *testing.T) {
	rt := New(4)
	if rt.IsRadioOn() {
		t.Fatal("radio initially on")
	}
	rt.RadioOn()
	if !rt.IsRadioOn() {
		t.Fatal("RadioOn did not stick")
	}
	rt.RadioOff()
	if rt.IsRadioOn() {
		t.Fatal("RadioOff did not stick")
	}
	rt.Complete()
	if !rt.Done {
		t.Fatal("Complete did not set Done")
	}
	if rt.Battery() != 1.0 {
		t.Fatalf("Battery = %v", rt.Battery())
	}
	rt.Event(node.Event{Kind: node.EventStateChange, State: "idle"})
	if len(rt.Events) != 1 {
		t.Fatalf("Events = %v", rt.Events)
	}
	if rt.Rand() == nil || rt.Now() != 0 {
		t.Fatal("Rand/Now accessors broken")
	}
}

func TestRandomPacketCoversAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[packet.Kind]bool{}
	for i := 0; i < 5000; i++ {
		seen[RandomPacket(rng).Kind()] = true
	}
	// One generator arm per kind.
	if len(seen) != int(packet.KindGossipData) {
		t.Fatalf("RandomPacket produced %d kinds, want %d", len(seen), packet.KindGossipData)
	}
}

// FuzzRuntimeOps drives the fake runtime itself with a byte-coded op
// stream: whatever the interleaving of timers, storage, radio, and
// clock jumps, the runtime's bookkeeping must stay consistent (clock
// monotone under FireNext, PendingTimers sorted soonest-first,
// storage read-back intact).
func FuzzRuntimeOps(f *testing.F) {
	f.Add([]byte{0, 1, 10, 2, 1, 3, 4, 5})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		rt := New(1)
		rec := &recorder{}
		rt.Attach(rec)
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			switch op % 6 {
			case 0:
				rt.SetTimer(node.TimerID(arg%8), time.Duration(arg)*time.Millisecond)
			case 1:
				rt.CancelTimer(node.TimerID(arg % 8))
			case 2:
				before := rt.Clock
				rt.FireNext()
				if rt.Clock < before {
					t.Fatal("FireNext moved the clock backwards")
				}
			case 3:
				seg, pkt := int(arg%4)+1, int(arg/4)
				payload := []byte{arg}
				if err := rt.Store(seg, pkt, int(arg%3)*8, payload); err == nil {
					got := rt.Load(seg, pkt)
					if len(got) != 1 || got[0] != arg {
						t.Fatalf("Load(%d,%d) = %v after storing %d", seg, pkt, got, arg)
					}
				}
			case 4:
				rt.Clock += time.Duration(arg) * time.Millisecond
			case 5:
				rt.Deliver(&packet.Query{Src: packet.NodeID(arg), ProgramID: 1, SegID: 1}, packet.NodeID(arg))
			}
			pending := rt.PendingTimers()
			for i := 1; i < len(pending); i++ {
				a, b := rt.timers[pending[i-1]], rt.timers[pending[i]]
				if a > b {
					t.Fatalf("PendingTimers out of order: %v", pending)
				}
			}
		}
	})
}
