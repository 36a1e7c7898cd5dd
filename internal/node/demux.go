package node

import (
	"fmt"
	"math/rand"
	"time"

	"mnp/internal/packet"
)

// SegSpace is the per-subprotocol segment namespace width used by
// Demux: segment IDs are at most 255, so slot (sub i, segment s) maps
// to EEPROM segment i*SegSpace + s without collisions.
const SegSpace = 256

// Classifier routes a received packet to one of a Demux's
// subprotocols; return a sub index, or -1 to drop the packet. This is
// how the paper's §6 multi-program scenario ("send different types of
// data to several disjoint or non-disjoint subsets of the network") is
// realized: unsubscribed programs classify to -1.
type Classifier func(p packet.Packet) int

// Demux runs several protocol instances on one mote, sharing its
// radio, MAC, and EEPROM: packets are routed by the classifier, timers
// are namespaced per instance, storage is partitioned into segment
// spaces, and the node reports Complete only when every instance has.
type Demux struct {
	classify Classifier
	subs     []Protocol
	rts      []*subRuntime
	rt       Runtime
}

var _ Protocol = (*Demux)(nil)

// NewDemux builds a demultiplexer over the given subprotocols.
func NewDemux(classify Classifier, subs ...Protocol) (*Demux, error) {
	if classify == nil {
		return nil, fmt.Errorf("node: nil classifier")
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("node: demux needs at least one subprotocol")
	}
	for i, s := range subs {
		if s == nil {
			return nil, fmt.Errorf("node: nil subprotocol %d", i)
		}
	}
	return &Demux{classify: classify, subs: subs}, nil
}

// Init implements Protocol.
func (d *Demux) Init(rt Runtime) error {
	d.rt = rt
	d.rts = make([]*subRuntime, len(d.subs))
	for i := range d.subs {
		d.rts[i] = &subRuntime{demux: d, idx: i}
	}
	// Initialize after all runtimes exist: a subprotocol may touch the
	// radio during Init, which consults the whole want-list.
	for i, s := range d.subs {
		if err := s.Init(d.rts[i]); err != nil {
			return err
		}
	}
	return nil
}

// OnPacket implements Protocol.
func (d *Demux) OnPacket(p packet.Packet, from packet.NodeID) {
	idx := d.classify(p)
	if idx < 0 || idx >= len(d.subs) {
		return
	}
	d.subs[idx].OnPacket(p, from)
}

// OnTimer implements Protocol.
func (d *Demux) OnTimer(id TimerID) {
	n := TimerID(len(d.subs))
	idx := int(id % n)
	d.subs[idx].OnTimer(id / n)
}

// Sub returns subprotocol i (for inspection in tests and experiments).
func (d *Demux) Sub(i int) Protocol { return d.subs[i] }

// subRuntime exposes a namespaced view of the shared runtime to one
// subprotocol.
type subRuntime struct {
	demux     *Demux
	idx       int
	wantRadio bool
	done      bool
}

var _ Runtime = (*subRuntime)(nil)

func (s *subRuntime) parent() Runtime { return s.demux.rt }

// ID implements Runtime.
func (s *subRuntime) ID() packet.NodeID { return s.parent().ID() }

// Now implements Runtime.
func (s *subRuntime) Now() time.Duration { return s.parent().Now() }

// Rand implements Runtime.
func (s *subRuntime) Rand() *rand.Rand { return s.parent().Rand() }

// Send implements Runtime.
func (s *subRuntime) Send(p packet.Packet) error { return s.parent().Send(p) }

// QueueFull implements Runtime.
func (s *subRuntime) QueueFull() bool { return s.parent().QueueFull() }

// timerID namespaces a subprotocol timer into the shared space.
func (s *subRuntime) timerID(id TimerID) TimerID {
	return id*TimerID(len(s.demux.subs)) + TimerID(s.idx)
}

// SetTimer implements Runtime.
func (s *subRuntime) SetTimer(id TimerID, d time.Duration) {
	s.parent().SetTimer(s.timerID(id), d)
}

// CancelTimer implements Runtime.
func (s *subRuntime) CancelTimer(id TimerID) { s.parent().CancelTimer(s.timerID(id)) }

// TimerPending implements Runtime.
func (s *subRuntime) TimerPending(id TimerID) bool {
	return s.parent().TimerPending(s.timerID(id))
}

// RadioOn implements Runtime: the radio is on while any subprotocol
// wants it on.
func (s *subRuntime) RadioOn() {
	s.wantRadio = true
	s.parent().RadioOn()
}

// RadioOff implements Runtime: the radio turns off only when no
// subprotocol still wants it (one instance sleeping must not deafen a
// sibling mid-download).
func (s *subRuntime) RadioOff() {
	s.wantRadio = false
	for _, rt := range s.demux.rts {
		if rt.wantRadio {
			return
		}
	}
	s.parent().RadioOff()
}

// IsRadioOn implements Runtime.
func (s *subRuntime) IsRadioOn() bool { return s.parent().IsRadioOn() }

// SetTxPower implements Runtime.
func (s *subRuntime) SetTxPower(level int) { s.parent().SetTxPower(level) }

// TxPower implements Runtime.
func (s *subRuntime) TxPower() int { return s.parent().TxPower() }

// Store implements Runtime, partitioned by segment space.
func (s *subRuntime) Store(seg, pkt, segPackets int, payload []byte) error {
	if seg < 1 || seg >= SegSpace {
		return fmt.Errorf("node: segment %d outside demux segment space", seg)
	}
	return s.parent().Store(s.idx*SegSpace+seg, pkt, segPackets, payload)
}

// Load implements Runtime.
func (s *subRuntime) Load(seg, pkt int) []byte {
	if seg < 1 || seg >= SegSpace {
		return nil
	}
	return s.parent().Load(s.idx*SegSpace+seg, pkt)
}

// HasPacket implements Runtime.
func (s *subRuntime) HasPacket(seg, pkt int) bool {
	if seg < 1 || seg >= SegSpace {
		return false
	}
	return s.parent().HasPacket(s.idx*SegSpace+seg, pkt)
}

// EraseStore implements Runtime. The parent EEPROM is shared, so only
// this instance's segment space may be released; the harness store
// erases per segment.
func (s *subRuntime) EraseStore() {
	// The DES harness exposes its EEPROM, allowing a per-segment
	// erase; other runtimes fall back to a full erase (a subprotocol
	// calling EraseStore mid-run is already a recovery path).
	if n, ok := s.parent().(*Node); ok {
		for seg := 1; seg < SegSpace; seg++ {
			n.EEPROM().EraseSegment(s.idx*SegSpace + seg)
		}
		return
	}
	s.parent().EraseStore()
}

// Complete implements Runtime: the mote is reprogrammed once every
// subscribed program has arrived.
func (s *subRuntime) Complete() {
	s.done = true
	for _, rt := range s.demux.rts {
		if !rt.done {
			return
		}
	}
	s.parent().Complete()
}

// Battery implements Runtime.
func (s *subRuntime) Battery() float64 { return s.parent().Battery() }

// Event implements Runtime.
func (s *subRuntime) Event(ev Event) { s.parent().Event(ev) }

// ProgramClassifier routes MNP messages by ProgramID: programs[i] maps
// to subprotocol i; unknown programs are dropped. Non-MNP messages are
// dropped too.
func ProgramClassifier(programs ...uint8) Classifier {
	index := make(map[uint8]int, len(programs))
	for i, p := range programs {
		index[p] = i
	}
	return func(p packet.Packet) int {
		var prog uint8
		switch m := p.(type) {
		case *packet.Advertise:
			prog = m.ProgramID
		case *packet.DownloadRequest:
			prog = m.ProgramID
		case *packet.StartDownload:
			prog = m.ProgramID
		case *packet.Data:
			prog = m.ProgramID
		case *packet.EndDownload:
			prog = m.ProgramID
		case *packet.Query:
			prog = m.ProgramID
		case *packet.RepairRequest:
			prog = m.ProgramID
		case *packet.StartSignal:
			prog = m.ProgramID
		default:
			return -1
		}
		if i, ok := index[prog]; ok {
			return i
		}
		return -1
	}
}
