package density

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"mnp/internal/packet"
)

// mapModel is the per-protocol beacon cache the table replaced, kept as
// the reference: a map pruned only when counting.
type mapModel struct {
	horizon time.Duration
	peers   map[packet.NodeID]lastBeacon
}

type lastBeacon struct {
	seen time.Duration
	segs int
}

func (m *mapModel) heard(id packet.NodeID, now time.Duration, segs int) {
	if m.peers == nil {
		m.peers = make(map[packet.NodeID]lastBeacon)
	}
	m.peers[id] = lastBeacon{seen: now, segs: segs}
}

func (m *mapModel) serverCount(now time.Duration, seg int) int {
	n := 1
	for id, p := range m.peers {
		if now-p.seen > m.horizon {
			delete(m.peers, id)
			continue
		}
		if p.segs >= seg {
			n++
		}
	}
	return n
}

// scanModel is the table as it was before the watermark, kept as the
// reference for contents and order: every scan, inserts included, tests
// every entry against the horizon and swap-removes the stale ones.
type scanModel struct {
	horizon time.Duration
	entries []entry
}

func (m *scanModel) evict(i int, now time.Duration) bool {
	if now-m.entries[i].seen <= m.horizon {
		return false
	}
	last := len(m.entries) - 1
	m.entries[i] = m.entries[last]
	m.entries = m.entries[:last]
	return true
}

func (m *scanModel) heard(id packet.NodeID, now time.Duration, segs int) {
	fresh := entry{seen: now, id: id, segs: int32(segs)}
	known := false
	for i := 0; i < len(m.entries); {
		if m.evict(i, now) {
			continue
		}
		if m.entries[i].id == id {
			m.entries[i] = fresh
			known = true
		}
		i++
	}
	if !known {
		m.entries = append(m.entries, fresh)
	}
}

func (m *scanModel) servers(now time.Duration, seg int) int {
	n := 1
	for i := 0; i < len(m.entries); {
		if m.evict(i, now) {
			continue
		}
		if int(m.entries[i].segs) >= seg {
			n++
		}
		i++
	}
	return n
}

const (
	testInterval = 2 * time.Second
	testJitter   = 500 * time.Millisecond
	testHorizon  = 2 * (testInterval + testJitter)
)

// Random beacons and count queries on a monotone clock: the table and
// the map model agree at every query, and the table holds the same
// entries in the same order as the scan model after every operation.
// Clock steps are drawn so that gaps of exactly one horizon occur
// (kept), as do gaps one tick longer (dropped).
func TestServersMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := New(testInterval, testJitter)
		ref := mapModel{horizon: testHorizon}
		scan := scanModel{horizon: testHorizon}
		ids := 1 + rng.Intn(60)
		now := time.Duration(0)
		for op := 0; op < 5000; op++ {
			switch rng.Intn(8) {
			case 0:
				now += testHorizon
			case 1:
				now += testHorizon + 1
			case 2:
				now += time.Duration(rng.Int63n(int64(testHorizon)))
			default:
				now += time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
			}
			if rng.Intn(3) > 0 {
				id, segs := packet.NodeID(rng.Intn(ids)), rng.Intn(6)
				tab.Heard(id, now, segs)
				ref.heard(id, now, segs)
				scan.heard(id, now, segs)
				if !slices.Equal(tab.entries, scan.entries) {
					t.Fatalf("seed %d op %d: after Heard(%v, %v, %d) table %v (Len %d), scan model %v",
						seed, op, id, now, segs, tab.entries, tab.Len(), scan.entries)
				}
				continue
			}
			seg := rng.Intn(7)
			got := tab.Servers(now, seg)
			if want := ref.serverCount(now, seg); got != want {
				t.Fatalf("seed %d op %d: Servers(%v, %d) = %d, map model %d", seed, op, now, seg, got, want)
			}
			if want := scan.servers(now, seg); got != want || !slices.Equal(tab.entries, scan.entries) {
				t.Fatalf("seed %d op %d: Servers(%v, %d) = %d leaving %v (Len %d), scan model %d leaving %v",
					seed, op, now, seg, got, tab.entries, tab.Len(), want, scan.entries)
			}
			// The model has just pruned, so it holds exactly the live set.
			if tab.Len() != len(ref.peers) {
				t.Fatalf("seed %d op %d: %d entries after a count, %d live", seed, op, tab.Len(), len(ref.peers))
			}
		}
	}
}

func TestHorizonBoundary(t *testing.T) {
	tab := New(testInterval, testJitter)
	tab.Heard(1, time.Second, 3)
	if got := tab.Servers(time.Second+testHorizon, 3); got != 2 {
		t.Fatalf("entry exactly one horizon old: Servers = %d, want 2 (kept)", got)
	}
	if got := tab.Servers(time.Second+testHorizon+1, 3); got != 1 {
		t.Fatalf("entry one tick past the horizon: Servers = %d, want 1 (dropped)", got)
	}
	if tab.Len() != 0 {
		t.Fatalf("%d entries left after the drop", tab.Len())
	}
	// An insert scan drops at the same boundary.
	tab.Heard(1, time.Second, 3)
	tab.Heard(2, time.Second+testHorizon, 3)
	if tab.Len() != 2 {
		t.Fatalf("insert at exactly one horizon dropped the old entry: %d entries", tab.Len())
	}
	tab.Heard(3, time.Second+testHorizon+1, 3)
	if tab.Len() != 2 {
		t.Fatalf("insert one tick past the horizon: %d entries, want 2", tab.Len())
	}
}

// A roaming mote meets ten thousand distinct peers and never asks for a
// count: the table still holds no more than the peers heard within one
// horizon of the latest beacon.
func TestSizeBoundedByHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := New(testInterval, testJitter)
	var heardAt []time.Duration
	now, oldest, peak := time.Duration(0), 0, 0
	for id := 0; id < 10000; id++ {
		now += time.Duration(rng.Int63n(int64(400 * time.Millisecond)))
		tab.Heard(packet.NodeID(id), now, rng.Intn(6))
		heardAt = append(heardAt, now)
		for now-heardAt[oldest] > testHorizon {
			oldest++
		}
		live := len(heardAt) - oldest
		if tab.Len() > live {
			t.Fatalf("after id %d at %v: %d entries, %d ids heard within the horizon", id, now, tab.Len(), live)
		}
		peak = max(peak, tab.Len())
	}
	if peak < 10 || peak > 100 {
		t.Fatalf("peak size %d: the clock steps should keep a few dozen ids live", peak)
	}
}
