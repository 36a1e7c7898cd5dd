package nodetest

import (
	"bytes"
	"testing"
	"time"

	"mnp/internal/bitvec"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// Contract is one node.Runtime implementation under RunContract: the
// semantics every protocol relies on, checked the same way against
// every runtime: node.Node, the demux and this package's Runtime.
type Contract struct {
	// New builds a fresh runtime and attaches p to it: p's Init has run,
	// and p turns the radio on there.
	New func(t *testing.T, p node.Protocol) Subject
}

// Subject is one runtime built by Contract.New.
type Subject struct {
	// Aired returns the frames the runtime has put on the air since the
	// last call, running it for as long as that takes.
	Aired func() [][]byte
	// Advance runs the runtime's clock forward by d, firing the timers
	// that fall due.
	Advance func(d time.Duration)
	// Refusals are the ways the runtime refuses a Send. The suite builds
	// a fresh subject for each and applies that subject's refusal.
	Refusals []Refusal
	// Crash fails the runtime as a power failure does, and restart
	// revives it with a fresh protocol instance, running its Init.
	Crash func() (restart func(p node.Protocol))
}

// Refusal puts a subject in a state where Send must refuse.
type Refusal struct {
	Name  string
	Apply func()
}

// contractProto is the protocol the suite attaches: it keeps its
// runtime and logs the timers delivered to it.
type contractProto struct {
	rt    node.Runtime
	fired []node.TimerID
}

func (p *contractProto) Init(rt node.Runtime) error            { p.rt = rt; rt.RadioOn(); return nil }
func (p *contractProto) OnPacket(packet.Packet, packet.NodeID) {}
func (p *contractProto) OnTimer(id node.TimerID)               { p.fired = append(p.fired, id) }

// RunContract runs the runtime contract against c, one subtest per
// row.
func RunContract(t *testing.T, c Contract) {
	build := func(t *testing.T) (*contractProto, Subject) {
		p := &contractProto{}
		s := c.New(t, p)
		if p.rt == nil {
			t.Fatal("New did not run the protocol's Init")
		}
		return p, s
	}

	t.Run("send-then-reuse", func(t *testing.T) {
		p, s := build(t)
		missing := bitvec.MustNew(16)
		missing.Set(3)
		req := &packet.DownloadRequest{Src: p.rt.ID(), DestID: 7, ProgramID: 1, SegID: 2, SegPackets: 16, EchoReqCtr: 1, Missing: missing}
		data := &packet.Data{Src: p.rt.ID(), ProgramID: 1, SegID: 2, PacketID: 3, Payload: []byte{1, 2, 3, 4}}
		var want [][]byte
		send := func(m packet.Packet) {
			want = append(want, packet.Encode(m))
			if err := p.rt.Send(m); err != nil {
				t.Fatalf("Send(%v): %v", m.Kind(), err)
			}
		}
		send(req)
		send(data)
		// A protocol that keeps one message per kind refills it for the
		// next frame, down to the bit vector and the payload bytes.
		missing.Set(9)
		req.EchoReqCtr = 5
		data.Payload[0] = 0xFF
		data.PacketID = 4
		send(data)
		data.Payload = append(data.Payload[:1], 9)
		got := s.Aired()
		if len(got) != len(want) {
			t.Fatalf("%d frames aired, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d aired as %x, sent as %x: changing the packet after Send changed the frame", i, got[i], want[i])
			}
		}
	})

	t.Run("oversized-refused", func(t *testing.T) {
		p, s := build(t)
		// 128 coefficients and a 200-byte payload: a body the frame's
		// one-byte length field cannot hold.
		big := &packet.RlncData{Src: p.rt.ID(), ProgramID: 1, Seg: 1, Coeffs: make([]byte, 128), Payload: make([]byte, 200)}
		if err := p.rt.Send(big); err == nil {
			t.Fatal("Send accepted a frame whose body overflows its length byte")
		}
		next := &packet.Query{Src: p.rt.ID(), ProgramID: 1, SegID: 1}
		if err := p.rt.Send(next); err != nil {
			t.Fatalf("Send after a refused frame: %v", err)
		}
		got := s.Aired()
		if len(got) != 1 || !bytes.Equal(got[0], packet.Encode(next)) {
			t.Fatalf("aired %x, want only the frame sent after the refused one", got)
		}
	})

	_, probe := build(t)
	for i, r := range probe.Refusals {
		t.Run("refusal/"+r.Name, func(t *testing.T) {
			p, s := build(t)
			s.Refusals[i].Apply()
			// A nil message panics if encoded: a refusal must not touch it.
			func() {
				defer func() {
					if e := recover(); e != nil {
						t.Fatalf("the refused frame was encoded: %v", e)
					}
				}()
				if err := p.rt.Send((*packet.Data)(nil)); err == nil {
					t.Fatal("Send accepted a frame")
				}
			}()
			marker := &packet.Query{Src: p.rt.ID(), ProgramID: 0xEE, SegID: 0xEE}
			if err := p.rt.Send(marker); err == nil {
				t.Fatal("Send accepted a frame")
			}
			frame := packet.Encode(marker)
			for _, f := range s.Aired() {
				if bytes.Equal(f, frame) {
					t.Fatal("a refused frame went on the air")
				}
			}
		})
	}

	t.Run("store-then-load", func(t *testing.T) {
		p, _ := build(t)
		rt := p.rt
		const seg, count = 3, 8
		payload := []byte{1, 2, 3}
		if err := rt.Store(seg, 0, count, payload); err != nil {
			t.Fatal(err)
		}
		payload[0] = 0xFF // Store copies
		view := rt.Load(seg, 0)
		if !bytes.Equal(view, []byte{1, 2, 3}) {
			t.Fatalf("Load = %v, want [1 2 3]", view)
		}
		for pkt := 1; pkt <= count; pkt++ { // the last one past the count
			if err := rt.Store(seg, pkt, count, []byte{byte(pkt), 0, 0, 0}); err != nil {
				t.Fatalf("Store(%d, %d): %v", seg, pkt, err)
			}
		}
		if err := rt.Store(seg, 0, count, []byte{7, 7, 7}); err != nil {
			t.Fatal(err)
		}
		if !rt.HasPacket(seg, count) || rt.HasPacket(seg, count+1) || rt.HasPacket(seg+1, 0) {
			t.Fatal("HasPacket disagrees with what was stored")
		}
		if got := rt.Load(seg, 0); !bytes.Equal(got, []byte{7, 7, 7}) {
			t.Fatalf("Load after a rewrite = %v", got)
		}
		if got := rt.Load(seg, count); !bytes.Equal(got, []byte{count, 0, 0, 0}) {
			t.Fatalf("Load of the packet past the count = %v", got)
		}
		if rt.Load(seg, count+1) != nil {
			t.Fatal("an empty slot loaded data")
		}
		rt.EraseStore()
		if rt.HasPacket(seg, 0) {
			t.Fatal("EraseStore left a packet")
		}
		// The loan: a view reads what it read when lent, through wider
		// payloads, rewrites and erasure.
		if !bytes.Equal(view, []byte{1, 2, 3}) {
			t.Fatalf("a lent view changed to %v", view)
		}
	})

	t.Run("timers", func(t *testing.T) {
		p, s := build(t)
		rt := p.rt
		rt.SetTimer(1, 30*time.Millisecond)
		rt.SetTimer(2, 20*time.Millisecond)
		rt.SetTimer(1, 40*time.Millisecond) // re-armed, not added
		rt.SetTimer(3, 10*time.Millisecond)
		rt.CancelTimer(3)
		rt.CancelTimer(4) // never set
		if !rt.TimerPending(1) || !rt.TimerPending(2) || rt.TimerPending(3) || rt.TimerPending(4) {
			t.Fatalf("pending 1..4 = %v %v %v %v, want true true false false",
				rt.TimerPending(1), rt.TimerPending(2), rt.TimerPending(3), rt.TimerPending(4))
		}
		s.Advance(35 * time.Millisecond)
		if len(p.fired) != 1 || p.fired[0] != 2 {
			t.Fatalf("fired %v by 35 ms, want [2]: a re-armed timer must not fire at its old deadline", p.fired)
		}
		s.Advance(10 * time.Millisecond)
		if len(p.fired) != 2 || p.fired[1] != 1 || rt.TimerPending(1) {
			t.Fatalf("fired %v by 45 ms (timer 1 pending %v), want [2 1]", p.fired, rt.TimerPending(1))
		}
	})

	t.Run("crash-restart", func(t *testing.T) {
		p, s := build(t)
		const seg = 2
		if err := p.rt.Store(seg, 0, 4, []byte{5, 6, 7}); err != nil {
			t.Fatal(err)
		}
		p.rt.SetTimer(1, 10*time.Millisecond)
		restart := s.Crash()
		// Down: nothing goes on the air and no timer fires.
		if err := p.rt.Send(&packet.Query{Src: p.rt.ID(), ProgramID: 1, SegID: 1}); err == nil {
			t.Fatal("a crashed runtime accepted a Send")
		}
		s.Advance(20 * time.Millisecond)
		if len(p.fired) != 0 {
			t.Fatalf("timers %v fired on a crashed runtime", p.fired)
		}
		if got := s.Aired(); len(got) != 0 {
			t.Fatalf("a crashed runtime aired %x", got)
		}
		// Rebooted: the EEPROM is what it was, RAM is new.
		q := &contractProto{}
		restart(q)
		if q.rt == nil {
			t.Fatal("restart did not run the new protocol's Init")
		}
		if got := q.rt.Load(seg, 0); !bytes.Equal(got, []byte{5, 6, 7}) {
			t.Fatalf("EEPROM after restart loads %v, want [5 6 7]", got)
		}
		if q.rt.TimerPending(1) {
			t.Fatal("a timer armed before the crash is pending after restart")
		}
		next := &packet.Query{Src: q.rt.ID(), ProgramID: 1, SegID: 2}
		if err := q.rt.Send(next); err != nil {
			t.Fatalf("Send after restart: %v", err)
		}
		if got := s.Aired(); len(got) != 1 || !bytes.Equal(got[0], packet.Encode(next)) {
			t.Fatalf("aired %x after restart, want only the frame sent then", got)
		}
		q.rt.SetTimer(2, 10*time.Millisecond)
		s.Advance(20 * time.Millisecond)
		if len(p.fired) != 0 || len(q.fired) != 1 || q.fired[0] != 2 {
			t.Fatalf("after restart the old protocol got %v and the new one %v, want [] and [2]", p.fired, q.fired)
		}
	})

	t.Run("radio-and-power", func(t *testing.T) {
		p, _ := build(t)
		rt := p.rt
		if !rt.IsRadioOn() {
			t.Fatal("radio off after Init turned it on")
		}
		rt.RadioOff()
		if rt.IsRadioOn() {
			t.Fatal("RadioOff did not stick")
		}
		rt.RadioOn()
		if !rt.IsRadioOn() {
			t.Fatal("RadioOn did not stick")
		}
		rt.SetTxPower(50)
		if rt.TxPower() != 50 {
			t.Fatalf("TxPower = %d after SetTxPower(50)", rt.TxPower())
		}
	})
}
