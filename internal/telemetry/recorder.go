package telemetry

import (
	"fmt"
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
)

// Recorder turns harness observations into NDJSON records on a Stream.
// It implements node.Observer, so it plugs into a run exactly where the
// metrics collector and trace log do — but where the trace ring keeps
// the last N entries in memory, the recorder streams every entry out as
// it happens, which is what makes a crashed or wedged run debuggable
// after the fact.
type Recorder struct {
	s   *Stream
	now func() time.Duration
}

// NewRecorder builds a recorder emitting to s; now supplies timestamps
// for observations that do not carry one (use Kernel.Now).
func NewRecorder(s *Stream, now func() time.Duration) (*Recorder, error) {
	if s == nil || now == nil {
		return nil, fmt.Errorf("telemetry: stream and clock are required")
	}
	return &Recorder{s: s, now: now}, nil
}

// Stream returns the underlying stream (for Close and error checks).
func (r *Recorder) Stream() *Stream { return r.s }

// SetClock replaces the recorder's timestamp source. The sharded engine
// replays buffered observations at window barriers and substitutes a
// clock that reads each event's original time, so records carry
// simulation instants rather than replay instants.
func (r *Recorder) SetClock(now func() time.Duration) {
	if now != nil {
		r.now = now
	}
}

// Meta emits the run-identity record. Call it once, first.
func (r *Recorder) Meta(name string, seed int64, nodes, packets int, protocol string) {
	r.s.Emit(Record{
		V: SchemaVersion, Type: TypeMeta,
		Name: name, Seed: seed, Nodes: nodes, Packets: packets, Protocol: protocol,
	})
}

// Fault emits one scheduled fault-plan event. Emit the whole plan up
// front, before the run starts, so a reader knows what was injected
// even if the run never reaches the fault's fire time.
func (r *Recorder) Fault(at time.Duration, kind, detail string) {
	r.s.Emit(Record{Type: TypeFault, T: int64(at), Kind: kind, Detail: detail})
}

// Violation emits an online invariant breach (wire it to
// invariant.Config.OnViolation).
func (r *Recorder) Violation(at time.Duration, id packet.NodeID, rule, detail string) {
	r.s.Emit(Record{Type: TypeViolation, T: int64(at), Node: int(id), Rule: rule, Detail: detail})
}

// Load emits one engine load sample: executor shard held tiles tiles
// over the report period ending at barrier (window lockstep windows
// into the run), executed events kernel events, delivered delivered
// frames, waited waitNs at barriers, and migrations tiles moved at the
// closing barrier (the engine's mapping is fixed, so it passes 0). The
// engine emits one record per executor per period.
func (r *Recorder) Load(barrier time.Duration, window, shard, tiles int, events, delivered, waitNs int64, migrations int) {
	r.s.Emit(Record{
		Type: TypeLoad, T: int64(barrier), Win: window, Shard: shard, Tiles: tiles,
		Events: events, Delivered: delivered, WaitNs: waitNs, Migrations: migrations,
	})
}

// Summary emits the final counter snapshot. Call it once, last.
func (r *Recorder) Summary(counters map[string]int64) {
	r.s.Emit(Record{Type: TypeSummary, T: int64(r.now()), Counters: counters})
}

var _ node.Observer = (*Recorder)(nil)

// NodeEvent implements node.Observer.
func (r *Recorder) NodeEvent(id packet.NodeID, at time.Duration, ev node.Event) {
	rec := Record{Type: TypeEvent, T: int64(at), Node: int(id)}
	switch ev.Kind {
	case node.EventStateChange:
		rec.Kind, rec.State = KindState, ev.State
	case node.EventParentSet:
		rec.Kind, rec.Peer, rec.Seg = KindParent, int(ev.Peer), ev.Seg
	case node.EventGotSegment:
		rec.Kind, rec.Seg = KindSegment, ev.Seg
	case node.EventGotCode:
		rec.Kind = KindCode
	case node.EventBecameSender:
		rec.Kind, rec.Seg = KindSender, ev.Seg
	case node.EventRebooted:
		rec.Kind = KindReboot
	case node.EventStoreErased:
		rec.Kind = KindErase
	case node.EventDecodeOps:
		rec.Kind, rec.Seg, rec.Ops = KindDecode, ev.Seg, ev.Ops
	default:
		rec.Kind = fmt.Sprintf("event-%d", int(ev.Kind))
	}
	r.s.Emit(rec)
}

// RadioState implements node.Observer.
func (r *Recorder) RadioState(id packet.NodeID, at time.Duration, on bool) {
	r.s.Emit(Record{Type: TypeRadio, T: int64(at), Node: int(id), On: on})
}

// StorageOp implements node.Observer.
func (r *Recorder) StorageOp(id packet.NodeID, write bool, seg, pkt, bytes int) {
	r.s.Emit(Record{
		Type: TypeStorage, T: int64(r.now()), Node: int(id),
		Write: write, Seg: seg, Pkt: pkt, Bytes: bytes,
	})
}
