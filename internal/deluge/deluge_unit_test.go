package deluge

import (
	"testing"

	"mnp/internal/bitvec"
	"mnp/internal/image"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
)

// page is the page size the fixtures use: Deluge's own.
const page = DefaultPagePackets

// smallImage: 3 pages of 48 packets (4-byte payloads).
func smallImage(t *testing.T) *image.Image {
	t.Helper()
	im, err := image.Random(1, 3, 17, image.WithSegmentPackets(page), image.WithPayloadSize(4))
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func newBaseRig(t *testing.T) (*Deluge, *nodetest.Runtime) {
	t.Helper()
	d := New(Config{Base: true, Image: smallImage(t)})
	rt := nodetest.New(0)
	rt.Attach(d)
	return d, rt
}

func newReceiverRig(t *testing.T) (*Deluge, *nodetest.Runtime) {
	t.Helper()
	d := New(Config{})
	rt := nodetest.New(9)
	rt.Attach(d)
	return d, rt
}

func baseAdv(src packet.NodeID, have int) *packet.DelugeAdv {
	return &packet.DelugeAdv{
		Src: src, ProgramID: 1, Version: 1,
		NumPages: 3, HavePages: uint8(have), PagePackets: page, TotalPackets: 3 * page,
	}
}

func lastOfKind(rt *nodetest.Runtime, k packet.Kind) packet.Packet {
	for i := len(rt.Sent) - 1; i >= 0; i-- {
		if rt.Sent[i].Kind() == k {
			return rt.Sent[i]
		}
	}
	return nil
}

func countKind(rt *nodetest.Runtime, k packet.Kind) int {
	c := 0
	for _, p := range rt.Sent {
		if p.Kind() == k {
			c++
		}
	}
	return c
}

func TestBasePreloadsAndAdvertises(t *testing.T) {
	d, rt := newBaseRig(t)
	if !rt.Done {
		t.Fatal("base not complete")
	}
	if d.HavePages() != 3 {
		t.Fatalf("HavePages = %d", d.HavePages())
	}
	if !rt.Radio {
		t.Fatal("radio off")
	}
	// The trickle fire timer eventually sends an advertisement.
	rt.Fire(timerTrickleFire)
	adv, ok := lastOfKind(rt, packet.KindDelugeAdv).(*packet.DelugeAdv)
	if !ok {
		t.Fatal("no advertisement after trickle fire")
	}
	if adv.HavePages != 3 || adv.NumPages != 3 || adv.PagePackets != page || adv.TotalPackets != 3*page {
		t.Fatalf("bad adv: %+v", adv)
	}
}

func TestConsistentAdvSuppressesOwn(t *testing.T) {
	d, rt := newBaseRig(t)
	// A same-state advertisement counts toward suppression (k=1).
	d.OnPacket(baseAdv(5, 3), 5)
	rt.Fire(timerTrickleFire)
	if countKind(rt, packet.KindDelugeAdv) != 0 {
		t.Fatal("advertised despite suppression")
	}
	// Next interval, quiet again: transmits.
	rt.Fire(timerTrickleEnd)
	rt.Fire(timerTrickleFire)
	if countKind(rt, packet.KindDelugeAdv) != 1 {
		t.Fatal("suppression leaked into next interval")
	}
}

func TestBehindAdvertiserTriggersRequest(t *testing.T) {
	d, rt := newReceiverRig(t)
	d.OnPacket(baseAdv(4, 3), 4)
	if !rt.TimerPending(timerRequest) {
		t.Fatal("no request scheduled")
	}
	rt.Fire(timerRequest)
	req, ok := lastOfKind(rt, packet.KindDelugeReq).(*packet.DelugeReq)
	if !ok {
		t.Fatal("no request sent")
	}
	if req.DestID != 4 || req.Page != 1 || req.PagePackets != page {
		t.Fatalf("bad request: %+v", req)
	}
	if req.Missing == nil || req.Missing.Count() != page {
		t.Fatalf("bad missing vector: %v", req.Missing)
	}
}

func TestOverheardRequestSuppressesOwn(t *testing.T) {
	d, rt := newReceiverRig(t)
	d.OnPacket(baseAdv(4, 3), 4)
	// Someone else requests page 1 first (destined elsewhere).
	other := &packet.DelugeReq{Src: 7, DestID: 4, ProgramID: 1, Page: 1, PagePackets: page}
	d.OnPacket(other, 7)
	rt.Fire(timerRequest)
	if countKind(rt, packet.KindDelugeReq) != 0 {
		t.Fatal("duplicate request not suppressed")
	}
	// But the node still arms its fetch watchdog to collect the data.
	if !rt.TimerPending(timerRxWatchdog) {
		t.Fatal("suppressed requester not fetching")
	}
}

func TestServeRequestedPacketsOnly(t *testing.T) {
	d, rt := newBaseRig(t)
	miss := bitvec.MustNew(page)
	miss.Set(2)
	miss.Set(5)
	d.OnPacket(&packet.DelugeReq{Src: 9, DestID: 0, ProgramID: 1, Page: 2, PagePackets: page, Missing: miss}, 9)
	for i := 0; i < 10 && rt.TimerPending(timerTxData); i++ {
		rt.Fire(timerTxData)
	}
	var ids []int
	for _, p := range rt.Sent {
		if dd, ok := p.(*packet.DelugeData); ok {
			if dd.Page != 2 {
				t.Fatalf("served page %d", dd.Page)
			}
			ids = append(ids, int(dd.PacketID))
		}
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
		t.Fatalf("served packets %v, want [2 5]", ids)
	}
}

// An advertisement whose page count is not the one its page size and
// total imply is not learned from.
func TestAdvGeometryMustBeAnImages(t *testing.T) {
	for pages, learn := range map[uint8]bool{2: false, 3: true, 4: false} {
		d, _ := newReceiverRig(t)
		adv := baseAdv(4, 3)
		adv.NumPages = pages
		d.OnPacket(adv, 4)
		if d.known() != learn {
			t.Errorf("%d pages of %d packets, %d in all: learned %v, want %v", pages, page, adv.TotalPackets, d.known(), learn)
		}
	}
}

func TestCannotServePageNotHeld(t *testing.T) {
	d, rt := newReceiverRig(t)
	d.OnPacket(baseAdv(4, 3), 4) // learn geometry, havePages still 0
	d.OnPacket(&packet.DelugeReq{Src: 7, DestID: 9, ProgramID: 1, Page: 1, PagePackets: page}, 7)
	if rt.TimerPending(timerTxData) {
		t.Fatal("serving a page we do not hold")
	}
}

func TestPagesInOrderAndCompletion(t *testing.T) {
	d, rt := newReceiverRig(t)
	img := smallImage(t)
	d.OnPacket(baseAdv(4, 3), 4)
	// Data for page 2 before page 1 is ignored.
	p20, _ := img.Payload(2, 0)
	d.OnPacket(&packet.DelugeData{Src: 4, ProgramID: 1, Page: 2, PacketID: 0, Payload: p20}, 4)
	if d.HavePages() != 0 || rt.EEPROM.Slots() != 0 {
		t.Fatal("out-of-order page accepted")
	}
	// Feed pages in order.
	for pg := 1; pg <= 3; pg++ {
		for pkt := 0; pkt < page; pkt++ {
			payload, _ := img.Payload(pg, pkt)
			d.OnPacket(&packet.DelugeData{Src: 4, ProgramID: 1, Page: uint8(pg), PacketID: uint8(pkt), Payload: payload}, 4)
		}
		if d.HavePages() != pg {
			t.Fatalf("HavePages = %d after page %d", d.HavePages(), pg)
		}
	}
	if !rt.Done {
		t.Fatal("not complete after all pages")
	}
	if rt.EEPROM.MaxWriteCount() != 1 {
		t.Fatal("write-once violated")
	}
}

func TestRxWatchdogRetriesThenGivesUp(t *testing.T) {
	d, rt := newReceiverRig(t)
	d.OnPacket(baseAdv(4, 3), 4)
	rt.Fire(timerRequest) // request #1
	for n := 2; n <= maxRequests; n++ {
		rt.Fire(timerRxWatchdog)
		if got := countKind(rt, packet.KindDelugeReq); got != n {
			t.Fatalf("requests after watchdog %d = %d, want %d", n-1, got, n)
		}
	}
	// maxRequests reached: the node abandons the fetch.
	rt.Fire(timerRxWatchdog)
	if got := countKind(rt, packet.KindDelugeReq); got != maxRequests || rt.TimerPending(timerRxWatchdog) {
		t.Fatalf("after giving up: %d requests (want %d), watchdog pending %v", got, maxRequests, rt.TimerPending(timerRxWatchdog))
	}
}

func TestForeignProgramIgnored(t *testing.T) {
	d, rt := newReceiverRig(t)
	d.OnPacket(baseAdv(4, 3), 4) // learn program 1
	foreign := baseAdv(5, 3)
	foreign.ProgramID = 2
	d.OnPacket(foreign, 5)
	if rt.TimerPending(timerRequest) {
		// The first adv scheduled a request; clear and check the
		// foreign one did not rearm toward node 5.
		rt.Fire(timerRequest)
		req := lastOfKind(rt, packet.KindDelugeReq).(*packet.DelugeReq)
		if req.DestID == 5 {
			t.Fatal("requested a foreign program")
		}
	}
}

// TestRebootedReceiverResumesFromFlash: flash outlives a reboot, so a
// receiver that learns the geometry resumes from the pages it holds and
// writes no slot twice; holding them all, it is complete at once.
func TestRebootedReceiverResumesFromFlash(t *testing.T) {
	img := smallImage(t)
	for _, held := range []int{page + 5, 3 * page} {
		d, rt := newReceiverRig(t)
		for seq := range held {
			payload, _ := img.Payload(seq/page+1, seq%page)
			if err := rt.Store(seq/page+1, seq%page, page, payload); err != nil {
				t.Fatal(err)
			}
		}
		d.OnPacket(baseAdv(4, 3), 4)
		if want := held / page; d.HavePages() != want || rt.Done != (want == 3) {
			t.Fatalf("holding %d packets: HavePages %d, done %v", held, d.HavePages(), rt.Done)
		}
		for pg := 1; pg <= 3; pg++ {
			for pkt := 0; pkt < page; pkt++ {
				payload, _ := img.Payload(pg, pkt)
				d.OnPacket(&packet.DelugeData{Src: 4, ProgramID: 1, Page: uint8(pg), PacketID: uint8(pkt), Payload: payload}, 4)
			}
		}
		if d.HavePages() != 3 || !rt.Done || rt.EEPROM.MaxWriteCount() != 1 {
			t.Fatalf("holding %d packets: HavePages %d, done %v, max writes %d", held, d.HavePages(), rt.Done, rt.EEPROM.MaxWriteCount())
		}
	}
}
