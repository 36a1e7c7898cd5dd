// Package faults turns failure scenarios into declarative,
// seed-deterministic plans. A Plan is a list of timed events — node
// crashes, crash+reboot cycles, link degradation, network partitions,
// EEPROM write errors — that Apply schedules onto the deployment
// before the run starts. Because the plan's randomness comes
// from a dedicated RNG derived from the run seed, a faulted run is as
// reproducible as a clean one: same seed, same failures, same result.
//
// Semantics mirror the hardware the paper targets:
//
//   - Crash: the mote dies permanently (battery removed). The radio is
//     destroyed and the node never returns.
//   - Crash+reboot: power blip. RAM — protocol state, timers, pending
//     queue — is lost; EEPROM contents survive, exactly the property
//     every protocol's reboot recovery (image.Resume) depends on.
//   - Link faults: extra delivery loss layered on top of the channel
//     model. Carrier sensing is unaffected: a partitioned node still
//     hears energy, it just cannot decode, which is the conservative
//     model for interference-induced partitions.
//   - EEPROM write errors: the flash driver reports a failed page
//     program; the write does not happen and the protocol must retry.
package faults

import (
	"fmt"
	"math/rand"
	"time"

	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
)

// Kind discriminates fault events.
type Kind int

// Fault kinds.
const (
	// KindCrash kills a node permanently at At.
	KindCrash Kind = iota + 1
	// KindReboot crashes a node at At and restarts it (fresh RAM,
	// surviving EEPROM) after Downtime.
	KindReboot
	// KindPartition drops every frame crossing the boundary between
	// Group and the rest of the network during [At, Until).
	KindPartition
	// KindDegrade adds Drop delivery loss on Src->Dst (and Dst->Src if
	// Bidirectional) during [At, Until).
	KindDegrade
	// KindEEPROM makes EEPROM writes fail with probability Drop on the
	// targeted nodes during [At, Until) (Until zero = forever).
	KindEEPROM
	// KindRandomCrashes kills Count random live non-base nodes at
	// evenly spaced instants across [At, Until].
	KindRandomCrashes
)

// Wildcard targets every non-base node in node-valued fields that
// accept it (KindEEPROM), and any node at all in KindDegrade endpoints
// — degrade:*->* is the idiom for uniform network-wide loss.
const Wildcard = packet.NodeID(0xFFFF)

// Event is one scheduled fault.
type Event struct {
	Kind          Kind
	Node          packet.NodeID // Crash, Reboot, EEPROM (or Wildcard)
	At            time.Duration
	Until         time.Duration // Partition, Degrade, EEPROM, RandomCrashes
	Downtime      time.Duration // Reboot: time between crash and restart
	Group         []packet.NodeID
	Src, Dst      packet.NodeID // Degrade
	Bidirectional bool          // Degrade
	Drop          float64       // Degrade, EEPROM: probability in (0, 1]
	Count         int           // RandomCrashes
}

// Plan is an ordered fault schedule.
type Plan struct {
	Events []Event
}

// Crash returns a plan event that permanently kills id at t.
func Crash(id packet.NodeID, t time.Duration) Event {
	return Event{Kind: KindCrash, Node: id, At: t}
}

// CrashReboot returns a power-blip event: id crashes at t and comes
// back, RAM wiped but EEPROM intact, after down.
func CrashReboot(id packet.NodeID, t, down time.Duration) Event {
	return Event{Kind: KindReboot, Node: id, At: t, Downtime: down}
}

// Partition isolates group from the rest of the network during
// [from, to): frames crossing the boundary are dropped in both
// directions.
func Partition(group []packet.NodeID, from, to time.Duration) Event {
	return Event{Kind: KindPartition, Group: group, At: from, Until: to}
}

// DegradeLink adds drop delivery loss on src->dst during [from, to);
// bidi extends it to dst->src. Either endpoint may be Wildcard:
// DegradeLink(Wildcard, Wildcard, ...) imposes uniform loss on every
// link, the knob loss-sweep campaigns turn.
func DegradeLink(src, dst packet.NodeID, bidi bool, from, to time.Duration, drop float64) Event {
	return Event{Kind: KindDegrade, Src: src, Dst: dst, Bidirectional: bidi, At: from, Until: to, Drop: drop}
}

// degradeMatch builds the per-frame drop function of one degrade
// event. Wildcard endpoints match any node.
func degradeMatch(ev Event) func(src, dst packet.NodeID) float64 {
	end := func(want, got packet.NodeID) bool { return want == Wildcard || want == got }
	return func(src, dst packet.NodeID) float64 {
		if (end(ev.Src, src) && end(ev.Dst, dst)) ||
			(ev.Bidirectional && end(ev.Dst, src) && end(ev.Src, dst)) {
			return ev.Drop
		}
		return 0
	}
}

// EEPROMErrors makes EEPROM writes on id (or every non-base node if id
// is Wildcard) fail with probability p during [from, to); to zero
// means for the whole run.
func EEPROMErrors(id packet.NodeID, p float64, from, to time.Duration) Event {
	return Event{Kind: KindEEPROM, Node: id, Drop: p, At: from, Until: to}
}

// RandomCrashes kills count random live non-base nodes at evenly
// spaced times across [from, to]. Victims are drawn from the plan's
// seeded RNG at fire time, so the same seed always kills the same
// nodes.
func RandomCrashes(count int, from, to time.Duration) Event {
	return Event{Kind: KindRandomCrashes, Count: count, At: from, Until: to}
}

// Env is what Apply needs from the harness: the deployment as a list of
// tiles (one tile is the classic single-kernel simulator), a scheduler
// for whole-network actions, and per-tile clocks for the hooks that
// install on one tile's medium or nodes.
type Env struct {
	// At schedules fn at simulated time t: a kernel event on one tile,
	// engine.At — the first window barrier not earlier than t, every
	// tile quiesced, so at most one minimal frame airtime late — across
	// several.
	At      func(t time.Duration, fn func())
	Network *node.Network
	// Mediums are the per-tile radio mediums, Clocks the matching
	// per-tile kernel clocks.
	Mediums []*radio.Medium
	Clocks  []func() time.Duration
	// TileOf maps a node to the tile that owns it; nil is allowed only
	// with a single tile.
	TileOf func(packet.NodeID) int
	// Seed derives the plan's private RNG; use the run seed so faulted
	// runs replay exactly.
	Seed int64
	// Base is exempt from Wildcard targeting and random crashes.
	Base packet.NodeID
}

// linkRule is one active time-windowed delivery-loss rule.
type linkRule struct {
	from, to time.Duration // [from, to), to zero = forever
	match    func(src, dst packet.NodeID) float64
}

// Validate checks the plan for malformed events, and for reboots that
// could not restart their mote.
func (p *Plan) Validate() error {
	for i, ev := range p.Events {
		switch ev.Kind {
		case KindCrash:
		case KindReboot:
			if ev.Downtime <= 0 {
				return fmt.Errorf("faults: event %d: reboot downtime %v must be positive", i, ev.Downtime)
			}
		case KindPartition:
			if len(ev.Group) == 0 {
				return fmt.Errorf("faults: event %d: partition group is empty", i)
			}
			if ev.Until <= ev.At {
				return fmt.Errorf("faults: event %d: partition window [%v, %v) is empty", i, ev.At, ev.Until)
			}
		case KindDegrade:
			if ev.Drop <= 0 || ev.Drop > 1 {
				return fmt.Errorf("faults: event %d: drop %v must be in (0, 1]", i, ev.Drop)
			}
			if ev.Until <= ev.At {
				return fmt.Errorf("faults: event %d: degrade window [%v, %v) is empty", i, ev.At, ev.Until)
			}
		case KindEEPROM:
			if ev.Drop <= 0 || ev.Drop > 1 {
				return fmt.Errorf("faults: event %d: eeprom error rate %v must be in (0, 1]", i, ev.Drop)
			}
		case KindRandomCrashes:
			if ev.Count <= 0 {
				return fmt.Errorf("faults: event %d: random crash count %d must be positive", i, ev.Count)
			}
			if ev.Until < ev.At {
				return fmt.Errorf("faults: event %d: window [%v, %v] is inverted", i, ev.At, ev.Until)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %d", i, ev.Kind)
		}
	}
	return p.validateRestarts()
}

// validateRestarts checks that every reboot can restart its mote: the
// mote must be down when its restart fires, so no other reboot of it
// may overlap the down window, and no crash may destroy it at or
// before the restart.
func (p *Plan) validateRestarts() error {
	for i, r := range p.Events {
		if r.Kind != KindReboot {
			continue
		}
		up := r.At + r.Downtime
		for j, ev := range p.Events {
			switch {
			case j == i || ev.Node != r.Node:
			case ev.Kind == KindCrash && ev.At <= up:
				return fmt.Errorf("faults: event %d: crash of %v at %v leaves event %d no mote to restart at %v", j, ev.Node, ev.At, i, up)
			case ev.Kind == KindReboot && j > i && ev.At <= up && r.At <= ev.At+ev.Downtime:
				return fmt.Errorf("faults: events %d and %d: reboots of %v overlap ([%v, %v] and [%v, %v])",
					i, j, r.Node, r.At, up, ev.At, ev.At+ev.Downtime)
			}
		}
	}
	return nil
}

// Apply schedules every event in the plan through env.At. Call it
// after the network is built and before the run starts. Whole-network
// events (crashes, reboots, random kills) go through env.At; the
// composite link-fault hook is installed once per medium against that
// tile's clock (tile clocks agree to within one window, and rule
// windows are orders of magnitude longer); overlapping rules take the
// maximum drop.
func (p *Plan) Apply(env Env) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if env.At == nil || env.Network == nil || len(env.Mediums) == 0 ||
		len(env.Clocks) != len(env.Mediums) || (len(env.Mediums) > 1 && env.TileOf == nil) {
		return fmt.Errorf("faults: env needs scheduler, network, per-tile mediums with clocks, and a tile map for several tiles")
	}
	// Private RNG: decoupled from the kernel RNG so installing a plan
	// never perturbs the protocol's random draws. It is built for the
	// first event that draws from it; crashes, reboots and link faults
	// draw nothing.
	var rng *rand.Rand
	planRand := func() *rand.Rand {
		if rng == nil {
			rng = rand.New(rand.NewSource(env.Seed<<16 ^ 0xFA17))
		}
		return rng
	}

	var rules []linkRule
	for _, ev := range p.Events {
		ev := ev
		switch ev.Kind {
		case KindCrash:
			if int(ev.Node) >= len(env.Network.Nodes) {
				return fmt.Errorf("faults: crash target %v does not exist", ev.Node)
			}
			env.At(ev.At, func() {
				env.Network.Nodes[ev.Node].Kill()
			})
		case KindReboot:
			if int(ev.Node) >= len(env.Network.Nodes) {
				return fmt.Errorf("faults: reboot target %v does not exist", ev.Node)
			}
			env.At(ev.At, func() {
				env.Network.Nodes[ev.Node].Crash()
			})
			env.At(ev.At+ev.Downtime, func() {
				if err := env.Network.Restart(ev.Node); err != nil {
					panic(fmt.Sprintf("faults: restart %v: %v", ev.Node, err))
				}
			})
		case KindPartition:
			inside := make(map[packet.NodeID]bool, len(ev.Group))
			for _, id := range ev.Group {
				inside[id] = true
			}
			rules = append(rules, linkRule{
				from: ev.At, to: ev.Until,
				match: func(src, dst packet.NodeID) float64 {
					if inside[src] != inside[dst] {
						return 1
					}
					return 0
				},
			})
		case KindDegrade:
			rules = append(rules, linkRule{
				from: ev.At, to: ev.Until,
				match: degradeMatch(ev),
			})
		case KindEEPROM:
			if err := p.applyEEPROM(env, ev, planRand); err != nil {
				return err
			}
		case KindRandomCrashes:
			p.applyRandomCrashes(env, ev, planRand())
		}
	}
	if len(rules) > 0 {
		for i, m := range env.Mediums {
			now := env.Clocks[i]
			m.SetLinkFault(func(src, dst packet.NodeID) float64 {
				t := now()
				drop := 0.0
				for _, r := range rules {
					if t < r.from || (r.to > 0 && t >= r.to) {
						continue
					}
					if d := r.match(src, dst); d > drop {
						drop = d
					}
				}
				return drop
			})
		}
	}
	return nil
}

func (p *Plan) applyEEPROM(env Env, ev Event, planRand func() *rand.Rand) error {
	var targets []packet.NodeID
	if ev.Node == Wildcard {
		for i := range env.Network.Nodes {
			if id := packet.NodeID(i); id != env.Base {
				targets = append(targets, id)
			}
		}
	} else {
		if int(ev.Node) >= len(env.Network.Nodes) {
			return fmt.Errorf("faults: eeprom target %v does not exist", ev.Node)
		}
		targets = []packet.NodeID{ev.Node}
	}
	for _, id := range targets {
		now, draws := env.Clocks[0], (*rand.Rand)(nil)
		if len(env.Mediums) == 1 {
			draws = planRand()
		} else {
			// One kernel has one total write order, so on one tile every
			// target draws from the shared plan stream (the chaos goldens
			// pin that sequence). Across tiles the interleaving of writes
			// is undefined, so each node gets its own stream keyed on
			// (seed, node) and the draw sequence cannot depend on it.
			now = env.Clocks[env.TileOf(id)]
			draws = rand.New(rand.NewSource(env.Seed<<16 ^ 0xFA17 ^ int64(id)*0x9E3779B9))
		}
		env.Network.Nodes[id].EEPROM().SetWriteFault(func(seg, pkt int) error {
			t := now()
			if t < ev.At || (ev.Until > 0 && t >= ev.Until) {
				return nil
			}
			if ev.Drop >= 1 || draws.Float64() < ev.Drop {
				return fmt.Errorf("eeprom: injected write fault at slot (%d,%d)", seg, pkt)
			}
			return nil
		})
	}
	return nil
}

func (p *Plan) applyRandomCrashes(env Env, ev Event, rng *rand.Rand) {
	span := ev.Until - ev.At
	for i := 0; i < ev.Count; i++ {
		at := ev.At
		if ev.Count > 1 {
			at += span * time.Duration(i) / time.Duration(ev.Count-1)
		}
		env.At(at, func() {
			var candidates []packet.NodeID
			for i, n := range env.Network.Nodes {
				if id := packet.NodeID(i); id != env.Base && !n.Dead() {
					candidates = append(candidates, id)
				}
			}
			if len(candidates) == 0 {
				return
			}
			victim := candidates[rng.Intn(len(candidates))]
			env.Network.Nodes[victim].Kill()
		})
	}
}

// String returns the fault-kind label used in plan summaries and
// telemetry records.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindReboot:
		return "reboot"
	case KindPartition:
		return "partition"
	case KindDegrade:
		return "degrade"
	case KindEEPROM:
		return "eeprom-errors"
	case KindRandomCrashes:
		return "randkill"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Describe renders one event for logs and telemetry streams.
func (ev Event) Describe() string {
	switch ev.Kind {
	case KindCrash:
		return fmt.Sprintf("crash %v @%v", ev.Node, ev.At)
	case KindReboot:
		return fmt.Sprintf("reboot %v @%v (down %v)", ev.Node, ev.At, ev.Downtime)
	case KindPartition:
		return fmt.Sprintf("partition %d nodes [%v, %v)", len(ev.Group), ev.At, ev.Until)
	case KindDegrade:
		arrow := "->"
		if ev.Bidirectional {
			arrow = "<->"
		}
		end := func(id packet.NodeID) string {
			if id == Wildcard {
				return "*"
			}
			return fmt.Sprintf("%v", id)
		}
		return fmt.Sprintf("degrade %s%s%s %.0f%% [%v, %v)", end(ev.Src), arrow, end(ev.Dst), ev.Drop*100, ev.At, ev.Until)
	case KindEEPROM:
		who := fmt.Sprintf("%v", ev.Node)
		if ev.Node == Wildcard {
			who = "*"
		}
		win := ""
		if ev.Until > 0 || ev.At > 0 {
			win = fmt.Sprintf(" [%v, %v)", ev.At, ev.Until)
		}
		return fmt.Sprintf("eeprom-errors %s %.1f%%%s", who, ev.Drop*100, win)
	case KindRandomCrashes:
		return fmt.Sprintf("randkill %d [%v, %v]", ev.Count, ev.At, ev.Until)
	default:
		return fmt.Sprintf("fault(%d)", int(ev.Kind))
	}
}

// String summarizes the plan for logs.
func (p *Plan) String() string {
	if len(p.Events) == 0 {
		return "faults: none"
	}
	s := "faults: " + p.Events[0].Describe()
	for _, ev := range p.Events[1:] {
		s += "; " + ev.Describe()
	}
	return s
}
