// Package density is the neighbour-density estimate the beaconing
// protocols (gossip, rlnc) pace their data pushes by: a bounded table
// of the last beacon heard per neighbour, asked "how many motes around
// me hold segment s right now?". Ten co-located holders that each send
// at a tenth of the solo rate keep the aggregate near one frame per
// data interval; without the estimate a dense neighbourhood serving
// one straggler saturates the channel.
//
// An entry older than the horizon — two maximal beacon periods — is
// never counted, and the owner's clock is monotone, so the moment such
// an entry is dropped is unobservable. The table drops them on the
// first call, inserts included, at which one could be stale, which
// bounds its size by the motes heard within one horizon however many a
// roaming mote has ever met.
package density

import (
	"time"

	"mnp/internal/packet"
)

// Table holds one mote's view of its neighbourhood. A live
// neighbourhood is 20–30 entries, so a dense slice scanned linearly
// beats a map on every operation the protocols perform.
type Table struct {
	horizon time.Duration
	// oldest is a lower bound on every entry's seen: while now-oldest is
	// within the horizon no entry can be stale, and Heard and Servers
	// skip the evicting scan.
	oldest  time.Duration
	entries []entry
}

type entry struct {
	seen time.Duration
	id   packet.NodeID
	segs int32
}

// New returns an empty table for beacons sent every interval plus a
// uniform delay in [0, jitter).
func New(interval, jitter time.Duration) Table {
	return Table{horizon: 2 * (interval + jitter)}
}

// sweep removes every entry older than the horizon at now, moving the
// last entry into each vacated place, and makes oldest exact again.
func (t *Table) sweep(now time.Duration) {
	if now-t.oldest <= t.horizon {
		return
	}
	t.oldest = now
	for i := 0; i < len(t.entries); {
		if seen := t.entries[i].seen; now-seen <= t.horizon {
			t.oldest = min(t.oldest, seen)
			i++
			continue
		}
		last := len(t.entries) - 1
		t.entries[i] = t.entries[last]
		t.entries = t.entries[:last]
	}
}

// Heard records a beacon from id, heard at now, advertising segs
// complete segments.
func (t *Table) Heard(id packet.NodeID, now time.Duration, segs int) {
	t.sweep(now)
	t.oldest = min(t.oldest, now) // holds the bound even if a clock steps back
	fresh := entry{seen: now, id: id, segs: int32(segs)}
	for i := range t.entries {
		if t.entries[i].id == id {
			t.entries[i] = fresh
			return
		}
	}
	t.entries = append(t.entries, fresh)
}

// Servers estimates how many motes, the owner included, hold segment
// seg in this neighbourhood at now.
func (t *Table) Servers(now time.Duration, seg int) int {
	t.sweep(now)
	n := 1
	for i := range t.entries {
		if int(t.entries[i].segs) >= seg {
			n++
		}
	}
	return n
}

// Len returns the number of entries held.
func (t *Table) Len() int { return len(t.entries) }
