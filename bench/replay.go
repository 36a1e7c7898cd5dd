package main

import (
	"fmt"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/experiment"
	"mnp/internal/metrics"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// The replays below rebuild one layer at a time from its public
// constructor, feed it the traffic a live run captured, and are timed
// by the caller's span. s is always the live run's Setup after Build
// applied its defaults; every workload is a grid on the default radio.

func freshLayout(s experiment.Setup) (*topology.Layout, error) {
	return topology.Grid(s.Rows, s.Cols, s.Spacing)
}

// replaySim schedules and fires events no-op kernel events while
// holding the queue at the live run's mean depth. New events land at
// scattered positions of the heap, as a run's timers do.
func replaySim(seed int64, events, depth int) {
	if depth < 1 {
		depth = 1
	}
	k := sim.NewSized(seed, depth+1)
	nop := func() {}
	for i := 0; i < depth; i++ {
		k.MustSchedule(time.Duration(i+1)*time.Microsecond, nop)
	}
	for i := 0; i < events; i++ {
		k.MustSchedule(time.Duration(uint32(i)*2654435761%uint32(depth)+1)*time.Microsecond, nop)
		k.Step()
	}
}

// radioReplay is what replaying the captured radio calls produced.
type radioReplay struct {
	deliveries uint64
	refused    int    // Transmit calls the fresh medium refused
	moves      uint64 // MoveNode calls applied along the way
}

// replayRadio drives a fresh kernel and medium with the captured
// SetRadio toggles and Transmit calls at their recorded instants, with
// no-op frame handlers and no sink. A mobile run's position updates are
// regenerated from the same model and applied at the same nominal
// instants, because the frames were sent from those positions; each
// step is a child span, so the replay's self time leaves them out.
func replayRadio(s experiment.Setup, c *capture, stop time.Duration, tr *tracer) (radioReplay, error) {
	var out radioReplay
	layout, err := freshLayout(s)
	if err != nil {
		return out, err
	}
	k := sim.NewSized(s.Seed, 4*layout.N())
	m, err := radio.NewMedium(k, layout, radio.DefaultParams(), s.Seed+1)
	if err != nil {
		return out, err
	}
	for id := 0; id < layout.N(); id++ {
		if err := m.Register(packet.NodeID(id), func(packet.Packet, radio.RxMeta) {}); err != nil {
			return out, err
		}
	}
	var model topology.Mobility
	nextStep := stop + 1
	if s.Mobility != nil {
		if model, err = s.Mobility(layout, s.Seed); err != nil {
			return out, err
		}
		nextStep = s.MobilityEvery
	}
	geo := m.Geometry()
	// advance runs the medium's own events (frame ends) up to and at t,
	// moving the fleet at every mobility instant on the way. A frame
	// ending at t goes first because the live run had it so: radios are
	// switched from the handlers that frame end called, and a frame's
	// end was scheduled before the backoff timer that transmits at t.
	// The mobility step goes before its instant's frame ends for the
	// same reason: it was scheduled a whole step earlier.
	advance := func(t time.Duration) {
		for nextStep <= t {
			k.RunBefore(nextStep)
			k.AdvanceTo(nextStep)
			tr.begin("mobility.step")
			for _, mv := range model.Moves(nextStep) {
				geo.MoveNode(mv.ID, mv.To)
			}
			tr.end()
			nextStep += s.MobilityEvery
		}
		k.Run(t)
		k.AdvanceTo(t)
	}
	for i := range c.calls {
		cl := &c.calls[i]
		switch cl.kind {
		case callRadioOn, callRadioOff:
			advance(cl.at)
			m.SetRadio(cl.id, cl.kind == callRadioOn)
		case callTransmit:
			advance(cl.at)
			if _, err := m.Transmit(cl.id, c.packets[cl.a], s.Power); err != nil {
				out.refused++
			}
		}
	}
	advance(stop)
	out.deliveries = m.Deliveries()
	out.moves = geo.Moves()
	return out, nil
}

// replayPacket encodes every captured packet and decodes the frame
// through a reuse cache, as the radio does once per transmission.
func replayPacket(c *capture) (frames, bytes int, err error) {
	var buf []byte
	var dec packet.DecodeCache
	for _, p := range c.packets {
		buf = packet.AppendEncode(buf[:0], p)
		if _, err := dec.Decode(buf); err != nil {
			return 0, 0, fmt.Errorf("packet replay: %w", err)
		}
		bytes += len(buf)
	}
	return len(c.packets), bytes, nil
}

// replayMetrics feeds the captured observer and sink calls to a fresh
// collector, with the clock set to each call's recorded instant.
func replayMetrics(s experiment.Setup, c *capture) (*metrics.Collector, int, error) {
	layout, err := freshLayout(s)
	if err != nil {
		return nil, 0, err
	}
	geo, err := radio.NewGeometry(layout, radio.DefaultParams(), s.Seed+1)
	if err != nil {
		return nil, 0, err
	}
	rangeFt, err := geo.RangeFor(s.Power)
	if err != nil {
		return nil, 0, err
	}
	var clock time.Duration
	col, err := metrics.NewCollector(metrics.Config{
		Layout: layout, Airtime: geo.Airtime, NeighborhoodRange: rangeFt,
	}, func() time.Duration { return clock })
	if err != nil {
		return nil, 0, err
	}
	fed := 0
	for i := range c.calls {
		cl := &c.calls[i]
		clock = cl.at
		switch cl.kind {
		case callRadioOn, callRadioOff:
			col.RadioState(cl.id, cl.at, cl.kind == callRadioOn)
		case callNodeEvent:
			col.NodeEvent(cl.id, cl.at, c.events[cl.a])
		case callStorageRead, callStorageWrite:
			col.StorageOp(cl.id, cl.kind == callStorageWrite, int(cl.a), int(cl.b), int(cl.n))
		case callFrameSent:
			col.FrameSent(cl.id, cl.pk, int(cl.a))
		case callFrameReceived:
			col.FrameReceived(cl.id, cl.peer, cl.pk, int(cl.a))
		case callFrameCollided:
			col.FrameCollided(cl.id, cl.peer, cl.pk)
		default:
			continue
		}
		fed++
	}
	return col, fed, nil
}

// replayEEPROM applies the captured storage operations to fresh
// per-node stores.
func replayEEPROM(nodes int, c *capture) (ops, bytes int, err error) {
	stores := make([]*eeprom.Store, nodes)
	var payload []byte
	for i := range c.calls {
		cl := &c.calls[i]
		if cl.kind != callStorageRead && cl.kind != callStorageWrite {
			continue
		}
		st := stores[cl.id]
		if st == nil {
			if st, err = eeprom.New(eeprom.DefaultCapacity); err != nil {
				return 0, 0, err
			}
			stores[cl.id] = st
		}
		if cl.kind == callStorageWrite {
			for len(payload) < int(cl.n) {
				payload = append(payload, 0)
			}
			if err := st.Write(int(cl.a), int(cl.b), payload[:cl.n]); err != nil {
				return 0, 0, fmt.Errorf("eeprom replay: node %v: %w", cl.id, err)
			}
		} else {
			st.Read(int(cl.a), int(cl.b))
		}
		ops++
		bytes += int(cl.n)
	}
	return ops, bytes, nil
}

// replayTopology regenerates the run's position updates and applies
// them to a fresh geometry that has no link-row cache watching it: the
// spatial index's own share of mobility.
func replayTopology(s experiment.Setup, stop time.Duration) (uint64, error) {
	if s.Mobility == nil {
		return 0, nil
	}
	layout, err := freshLayout(s)
	if err != nil {
		return 0, err
	}
	geo, err := radio.NewGeometry(layout, radio.DefaultParams(), s.Seed+1)
	if err != nil {
		return 0, err
	}
	model, err := s.Mobility(layout, s.Seed)
	if err != nil {
		return 0, err
	}
	for t := s.MobilityEvery; t <= stop; t += s.MobilityEvery {
		for _, mv := range model.Moves(t) {
			geo.MoveNode(mv.ID, mv.To)
		}
	}
	return geo.Moves(), nil
}
