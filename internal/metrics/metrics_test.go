package metrics

import (
	"reflect"
	"testing"
	"time"

	"mnp/internal/energy"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/topology"
)

func newCollector(t *testing.T) (*Collector, *time.Duration) {
	t.Helper()
	l, err := topology.Grid(2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	now := new(time.Duration)
	c, err := NewCollector(Config{
		Layout:            l,
		Airtime:           func(bytes int) time.Duration { return time.Duration(bytes) * time.Millisecond },
		NeighborhoodRange: 15,
	}, func() time.Duration { return *now })
	if err != nil {
		t.Fatal(err)
	}
	return c, now
}

func TestNewCollectorValidation(t *testing.T) {
	l, _ := topology.Grid(1, 2, 10)
	air := func(int) time.Duration { return time.Millisecond }
	clock := func() time.Duration { return 0 }
	if _, err := NewCollector(Config{Airtime: air}, clock); err == nil {
		t.Error("nil layout accepted")
	}
	if _, err := NewCollector(Config{Layout: l}, clock); err == nil {
		t.Error("nil airtime accepted")
	}
	if _, err := NewCollector(Config{Layout: l, Airtime: air}, nil); err == nil {
		t.Error("nil clock accepted")
	}
}

func TestTrafficCounting(t *testing.T) {
	c, now := newCollector(t)
	*now = time.Second
	c.FrameSent(0, packet.KindAdvertise, 16)
	c.FrameSent(0, packet.KindData, 34)
	c.FrameReceived(1, 0, packet.KindAdvertise, 16)
	c.FrameReceived(1, 0, packet.KindData, 34)
	c.FrameCollided(2, 0, packet.KindData)

	if c.TxCount(0) != 2 || c.RxCount(1) != 2 {
		t.Fatalf("tx=%d rx=%d", c.TxCount(0), c.RxCount(1))
	}
	if c.TxByClass(0, packet.ClassAdvertisement) != 1 || c.TxByClass(0, packet.ClassData) != 1 {
		t.Fatal("class counting wrong")
	}
	if c.RxByClass(1, packet.ClassAdvertisement) != 1 || c.RxByClass(1, packet.ClassData) != 1 {
		t.Fatal("rx class counting wrong")
	}
	if c.RxByClass(1, packet.ClassControl) != 0 {
		t.Fatal("phantom rx class count")
	}
	if c.Collisions(2) != 1 {
		t.Fatal("collision not counted")
	}
	at, ok := c.FirstAdvertisementHeard(1)
	if !ok || at != time.Second {
		t.Fatalf("first adv = %v/%v", at, ok)
	}
	if _, ok := c.FirstAdvertisementHeard(2); ok {
		t.Fatal("node 2 claims to have heard an advertisement")
	}
}

func TestWindowCounts(t *testing.T) {
	c, now := newCollector(t)
	*now = 10 * time.Second
	c.FrameSent(0, packet.KindData, 34)
	c.FrameSent(0, packet.KindData, 34)
	*now = 2*time.Minute + time.Second
	c.FrameSent(0, packet.KindData, 34)
	c.FrameSent(0, packet.KindAdvertise, 16)

	want := [][3]int{{0, 0, 2}, {0, 0, 0}, {1, 0, 1}}
	if got := c.MessageMix(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MessageMix = %v, want %v", got, want)
	}
}

func TestActiveRadioTimeClipping(t *testing.T) {
	c, _ := newCollector(t)
	// On at 1s, off at 3s, on at 5s, never off.
	c.RadioState(0, time.Second, true)
	c.RadioState(0, 3*time.Second, false)
	c.RadioState(0, 5*time.Second, true)

	if got := c.ActiveRadioTime(0, 0, 10*time.Second); got != 7*time.Second {
		t.Fatalf("full window = %v, want 7s", got)
	}
	if got := c.ActiveRadioTime(0, 0, 2*time.Second); got != time.Second {
		t.Fatalf("clipped = %v, want 1s", got)
	}
	if got := c.ActiveRadioTime(0, 2*time.Second, 6*time.Second); got != 2*time.Second {
		t.Fatalf("windowed = %v, want 2s", got)
	}
	if got := c.ActiveRadioTime(1, 0, 10*time.Second); got != 0 {
		t.Fatalf("never-on node = %v", got)
	}
}

func TestLedgerIdleListening(t *testing.T) {
	c, now := newCollector(t)
	c.RadioState(0, 0, true)
	*now = 0
	c.FrameSent(0, packet.KindData, 34)        // 34 ms air
	c.FrameReceived(0, 1, packet.KindData, 34) // 34 ms air
	c.StorageOp(0, true, 1, 0, 22)
	c.StorageOp(0, false, 1, 0, 22)
	l := c.Ledger(0, time.Second)
	if l.TxPackets != 1 || l.RxPackets != 1 {
		t.Fatalf("ledger tx/rx = %d/%d", l.TxPackets, l.RxPackets)
	}
	wantIdle := time.Second - 68*time.Millisecond
	if l.IdleListening != wantIdle {
		t.Fatalf("idle = %v, want %v", l.IdleListening, wantIdle)
	}
	if l.EEPROMWrites != 2 || l.EEPROMReads != 2 {
		t.Fatalf("eeprom = %d/%d units", l.EEPROMWrites, l.EEPROMReads)
	}
	if l.Total() <= 0 {
		t.Fatal("non-positive total charge")
	}
	// Costs default to Table 1.
	if got := l.RadioCharge(); got != 1*energy.Table1.TransmitPacket+1*energy.Table1.ReceivePacket+wantIdle.Seconds()*1000*energy.Table1.IdleListenMs {
		t.Fatalf("radio charge = %v", got)
	}
}

func TestNodeEvents(t *testing.T) {
	c, _ := newCollector(t)
	c.NodeEvent(1, time.Second, node.Event{Kind: node.EventParentSet, Peer: 0, Seg: 1})
	c.NodeEvent(1, 2*time.Second, node.Event{Kind: node.EventGotSegment, Seg: 1})
	c.NodeEvent(1, 2*time.Second, node.Event{Kind: node.EventGotCode})
	c.NodeEvent(1, 3*time.Second, node.Event{Kind: node.EventGotCode}) // duplicate ignored
	c.NodeEvent(2, 4*time.Second, node.Event{Kind: node.EventBecameSender, Seg: 1})
	c.NodeEvent(2, 5*time.Second, node.Event{Kind: node.EventBecameSender, Seg: 2})
	c.NodeEvent(3, 6*time.Second, node.Event{Kind: node.EventBecameSender, Seg: 1})

	at, ok := c.GotCodeAt(1)
	if !ok || at != 2*time.Second {
		t.Fatalf("GotCodeAt = %v/%v", at, ok)
	}
	if _, ok := c.GotCodeAt(0); ok {
		t.Fatal("node 0 completed spuriously")
	}
	st, ok := c.SegmentTime(1, 1)
	if !ok || st != 2*time.Second {
		t.Fatalf("SegmentTime = %v/%v", st, ok)
	}
	p, ok := c.Parent(1)
	if !ok || p != 0 {
		t.Fatalf("Parent = %v/%v", p, ok)
	}
	order := c.SenderOrder()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("SenderOrder = %v", order)
	}
	if got := len(c.SenderEvents()); got != 3 {
		t.Fatalf("SenderEvents = %d", got)
	}
}

func TestCompletionSeries(t *testing.T) {
	c, _ := newCollector(t)
	c.NodeEvent(0, 1*time.Second, node.Event{Kind: node.EventGotCode})
	c.NodeEvent(2, 3*time.Second, node.Event{Kind: node.EventGotCode})
	c.NodeEvent(1, 2*time.Second, node.Event{Kind: node.EventGotCode})
	times := c.CompletionTimes()
	if len(times) != 3 || times[0] != time.Second || times[2] != 3*time.Second {
		t.Fatalf("CompletionTimes = %v", times)
	}
	if got := c.CompletedFractionAt(2 * time.Second); got != 0.5 {
		t.Fatalf("fraction at 2s = %v, want 0.5", got)
	}
	if got := c.CompletedFractionAt(10 * time.Second); got != 0.75 {
		t.Fatalf("fraction at 10s = %v, want 0.75", got)
	}
}

func TestConcurrencyViolations(t *testing.T) {
	c, now := newCollector(t)
	// Node 0 and node 1 are 10 ft apart (inside the 15 ft
	// neighborhood); node 3 is 14.1 ft diagonal from 0.
	*now = 0
	c.FrameSent(0, packet.KindData, 34) // occupies 34 ms
	*now = 10 * time.Millisecond
	c.FrameSent(1, packet.KindData, 34) // overlap with node 0 → violation
	if c.ConcurrencyViolations() != 1 {
		t.Fatalf("violations = %d, want 1", c.ConcurrencyViolations())
	}
	// After both frames end, a new sender sees no overlap.
	*now = 200 * time.Millisecond
	c.FrameSent(3, packet.KindData, 34)
	if c.ConcurrencyViolations() != 1 {
		t.Fatalf("violations = %d after quiet period", c.ConcurrencyViolations())
	}
	// Control frames never count.
	*now = 210 * time.Millisecond
	c.FrameSent(0, packet.KindAdvertise, 16)
	if c.ConcurrencyViolations() != 1 {
		t.Fatalf("advertisement counted as data violation")
	}
}

func TestMeanActiveRadioTimes(t *testing.T) {
	c, now := newCollector(t)
	for i := 0; i < 4; i++ {
		c.RadioState(packet.NodeID(i), 0, true)
	}
	// Node 1 heard its first advertisement at 4s.
	*now = 4 * time.Second
	c.FrameReceived(1, 0, packet.KindAdvertise, 16)
	until := 10 * time.Second
	if got := c.MeanActiveRadioTime(until); got != 10*time.Second {
		t.Fatalf("mean ART = %v", got)
	}
	// After-first-adv: node 1 contributes 6s, others 10s each.
	want := (10*3 + 6) * time.Second / 4
	if got := c.MeanActiveRadioTimeAfterFirstAdv(until); got != want {
		t.Fatalf("mean ART after adv = %v, want %v", got, want)
	}
}

// A node that never sleeps has one radio interval, opened at boot and
// never closed. Run-end accounting must close it at the horizon — the
// still-open active time may not be lost, in any report that
// integrates radio time.
func TestActiveRadioTimeNeverSleeps(t *testing.T) {
	c, _ := newCollector(t)
	c.RadioState(0, 0, true) // on at boot, never off
	until := 42 * time.Minute
	if got := c.ActiveRadioTime(0, 0, until); got != until {
		t.Fatalf("never-sleeping node ART = %v, want %v", got, until)
	}
	// The open interval is closed at the horizon, not dropped, even when
	// a measurement window starts mid-interval.
	if got := c.ActiveRadioTime(0, 10*time.Minute, until); got != 32*time.Minute {
		t.Fatalf("windowed ART = %v, want 32m", got)
	}
	// Ledger idle time sees the full interval too.
	l := c.Ledger(0, until)
	if l.IdleListening != until {
		t.Fatalf("ledger idle = %v, want %v", l.IdleListening, until)
	}
	// And the telemetry snapshot: all of the node's time is radio-on,
	// none is sleep.
	s := c.Snapshot(until)
	wantOn := until // only node 0 ever turned its radio on
	if s.RadioOnTotal != wantOn {
		t.Fatalf("snapshot radio-on = %v, want %v", s.RadioOnTotal, wantOn)
	}
	if s.SleepTotal != time.Duration(s.Nodes)*until-wantOn {
		t.Fatalf("snapshot sleep = %v", s.SleepTotal)
	}
}

func TestSnapshotAggregates(t *testing.T) {
	c, now := newCollector(t)
	*now = 0
	c.RadioState(0, 0, true)
	c.RadioState(0, time.Second, false)
	c.FrameSent(0, packet.KindData, 34)
	c.FrameSent(0, packet.KindAdvertise, 16)
	c.FrameReceived(1, 0, packet.KindData, 34)
	c.FrameCollided(2, 0, packet.KindData)
	c.StorageOp(1, true, 1, 0, 22)
	c.StorageOp(1, false, 1, 0, 22)
	c.NodeEvent(1, time.Second, node.Event{Kind: node.EventGotSegment, Seg: 1})
	c.NodeEvent(1, 2*time.Second, node.Event{Kind: node.EventGotCode})
	c.NodeEvent(2, 2*time.Second, node.Event{Kind: node.EventBecameSender, Seg: 1})

	s := c.Snapshot(10 * time.Second)
	if s.Nodes != 4 || s.Completed != 1 {
		t.Fatalf("nodes/completed = %d/%d", s.Nodes, s.Completed)
	}
	if s.Tx != 2 || s.Rx != 1 || s.Collisions != 1 {
		t.Fatalf("tx/rx/coll = %d/%d/%d", s.Tx, s.Rx, s.Collisions)
	}
	if s.TxByClass[packet.ClassData] != 1 || s.TxByClass[packet.ClassAdvertisement] != 1 {
		t.Fatalf("tx by class = %v", s.TxByClass)
	}
	if s.EEPROMWriteBytes != 22 || s.EEPROMReadBytes != 22 {
		t.Fatalf("eeprom bytes = %d/%d", s.EEPROMWriteBytes, s.EEPROMReadBytes)
	}
	if s.SenderEvents != 1 {
		t.Fatalf("sender events = %d", s.SenderEvents)
	}
	if s.SegmentCompletions[1] != 1 {
		t.Fatalf("segment completions = %v", s.SegmentCompletions)
	}
	if s.RadioOnTotal != time.Second {
		t.Fatalf("radio on = %v", s.RadioOnTotal)
	}
	if s.SleepTotal != 4*10*time.Second-time.Second {
		t.Fatalf("sleep = %v", s.SleepTotal)
	}
}
