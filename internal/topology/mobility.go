package topology

import (
	"fmt"
	"math"
	"time"

	"mnp/internal/packet"
)

// A Move is one node position update produced by a mobility model.
type Move struct {
	ID packet.NodeID
	To Point
}

// Mobility animates node positions over simulated time. Moves is called
// with a strictly increasing sequence of instants and returns the
// position updates effective at that instant, advancing the model's
// internal state deterministically — the same seed and the same call
// sequence always yield the same moves. The returned slice is reused
// across calls; apply it before the next call.
//
// The engine applies moves only at lockstep barriers (see
// experiment.Setup.Mobility), so implementations never race with
// concurrent readers of the shared point slice.
type Mobility interface {
	Moves(now time.Duration) []Move
}

// splitmix64 is a tiny per-node random stream: two words of state per
// node instead of math/rand's 607-word source, so a 250k-node waypoint
// model stays cheap. The constants are the standard splitmix64 finalizer.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// WaypointConfig parameterizes the random-waypoint model. Speeds are in
// feet per second to match the rest of the geometry.
type WaypointConfig struct {
	// SpeedMin and SpeedMax bound the per-leg speed draw; SpeedMin must
	// be positive (a zero-speed leg would never end).
	SpeedMin, SpeedMax float64
	// Pause is how long a node rests at each waypoint before picking the
	// next destination.
	Pause time.Duration
	// Seed drives the per-node destination and speed draws.
	Seed int64
}

// wpLeg is one node's current leg: it rests at `from` until legStart,
// travels to `to` arriving at legEnd, then pauses before the next draw.
type wpLeg struct {
	from, to         Point
	legStart, legEnd time.Duration
	cur              Point // last emitted position
}

// Waypoint is the classic random-waypoint model: each node repeatedly
// draws a uniform destination in the layout's bounding box and a
// uniform speed in [SpeedMin, SpeedMax], travels there in a straight
// line, pauses, and repeats. Every node carries its own splitmix64 stream seeded from
// (Seed, id), so the trajectory of a node is independent of how often
// Moves is sampled and of every other node.
type Waypoint struct {
	cfg           WaypointConfig
	minX, minY    float64
	width, height float64
	rng           []splitmix
	legs          []wpLeg
	buf           []Move
}

// NewWaypoint builds a random-waypoint model over the layout's current
// positions. The layout is only read here — the model owns no reference
// to it, and position updates flow back through the caller applying the
// returned Moves.
func NewWaypoint(l *Layout, cfg WaypointConfig) (*Waypoint, error) {
	if l == nil || l.N() == 0 {
		return nil, fmt.Errorf("topology: waypoint over an empty layout")
	}
	if !(cfg.SpeedMin > 0) || math.IsInf(cfg.SpeedMin, 0) {
		return nil, fmt.Errorf("topology: waypoint speed_min %g must be positive and finite", cfg.SpeedMin)
	}
	if cfg.SpeedMax < cfg.SpeedMin || math.IsInf(cfg.SpeedMax, 0) {
		return nil, fmt.Errorf("topology: waypoint speed_max %g must be >= speed_min %g and finite", cfg.SpeedMax, cfg.SpeedMin)
	}
	if cfg.Pause < 0 {
		return nil, fmt.Errorf("topology: waypoint pause %v must be >= 0", cfg.Pause)
	}
	pts := l.Points()
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	w := &Waypoint{
		cfg:    cfg,
		minX:   minX,
		minY:   minY,
		width:  maxX - minX,
		height: maxY - minY,
		rng:    make([]splitmix, len(pts)),
		legs:   make([]wpLeg, len(pts)),
	}
	for i := range w.rng {
		// Mix id into the seed with the splitmix increment so adjacent
		// ids get decorrelated streams.
		w.rng[i] = splitmix{s: uint64(cfg.Seed) ^ (uint64(i)+1)*0x9e3779b97f4a7c15}
		w.legs[i] = wpLeg{from: pts[i], to: pts[i], cur: pts[i]}
	}
	return w, nil
}

// Moves advances every node to `now` and returns the updates for nodes
// whose position changed since the last call (paused nodes stay quiet,
// which keeps the radio's link-row cache warm for them).
func (w *Waypoint) Moves(now time.Duration) []Move {
	w.buf = w.buf[:0]
	for i := range w.legs {
		leg := &w.legs[i]
		// Finished legs (plus pause) roll into fresh draws until the
		// current leg covers `now`.
		for now >= leg.legEnd+w.cfg.Pause {
			begin := leg.legEnd + w.cfg.Pause
			rng := &w.rng[i]
			leg.from = leg.to
			leg.to = Point{
				X: w.minX + rng.float()*w.width,
				Y: w.minY + rng.float()*w.height,
			}
			speed := w.cfg.SpeedMin + rng.float()*(w.cfg.SpeedMax-w.cfg.SpeedMin)
			travel := time.Duration(leg.from.Distance(leg.to) / speed * float64(time.Second))
			leg.legStart = begin
			leg.legEnd = begin + travel
		}
		var pos Point
		switch {
		case now <= leg.legStart:
			pos = leg.from
		case now >= leg.legEnd:
			pos = leg.to
		default:
			f := float64(now-leg.legStart) / float64(leg.legEnd-leg.legStart)
			pos = Point{
				X: leg.from.X + f*(leg.to.X-leg.from.X),
				Y: leg.from.Y + f*(leg.to.Y-leg.from.Y),
			}
		}
		if pos != leg.cur {
			leg.cur = pos
			w.buf = append(w.buf, Move{ID: packet.NodeID(i), To: pos})
		}
	}
	return w.buf
}
