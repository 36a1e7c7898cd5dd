package image

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(1, nil); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := New(1, []byte{1}, WithPayloadSize(0)); err == nil {
		t.Error("zero payload accepted")
	}
	if _, err := New(1, []byte{1}, WithPayloadSize(300)); err == nil {
		t.Error("oversize payload accepted")
	}
	if _, err := New(1, []byte{1}, WithSegmentPackets(0)); err == nil {
		t.Error("zero segment packets accepted")
	}
	if _, err := New(1, []byte{1}, WithSegmentPackets(256)); err == nil {
		t.Error("oversize segment packets accepted")
	}
	// 256 segments overflows the 1-byte SegID space.
	big := make([]byte, 256*4*2)
	if _, err := New(1, big, WithPayloadSize(2), WithSegmentPackets(4)); err == nil {
		t.Error("too many segments accepted")
	}
}

func TestGeometryExactSegments(t *testing.T) {
	im, err := Random(1, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := im.Segments(); got != 5 {
		t.Fatalf("Segments = %d, want 5", got)
	}
	if got := im.TotalPackets(); got != 5*DefaultSegmentPackets {
		t.Fatalf("TotalPackets = %d", got)
	}
	if got := im.Size(); got != 5*SegmentBytes {
		t.Fatalf("Size = %d, want %d", got, 5*SegmentBytes)
	}
	for seg := 1; seg <= 5; seg++ {
		n, err := im.PacketsIn(seg)
		if err != nil {
			t.Fatal(err)
		}
		if n != DefaultSegmentPackets {
			t.Fatalf("PacketsIn(%d) = %d", seg, n)
		}
	}
}

func TestGeometryPartialTail(t *testing.T) {
	// 3 payloads of 10 bytes + a 4-byte tail, 2 packets per segment:
	// packets = 4, segments = 2, last segment has 2 packets, last
	// packet is 4 bytes.
	data := make([]byte, 34)
	for i := range data {
		data[i] = byte(i)
	}
	im, err := New(1, data, WithPayloadSize(10), WithSegmentPackets(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := im.TotalPackets(); got != 4 {
		t.Fatalf("TotalPackets = %d, want 4", got)
	}
	if got := im.Segments(); got != 2 {
		t.Fatalf("Segments = %d, want 2", got)
	}
	p, err := im.Payload(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Fatalf("tail payload = %d bytes, want 4", len(p))
	}
	if !bytes.Equal(p, data[30:]) {
		t.Fatalf("tail payload content mismatch")
	}
}

func TestPayloadBounds(t *testing.T) {
	im, err := Random(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := im.PacketsIn(0); err == nil {
		t.Error("PacketsIn(0) accepted")
	}
	if _, err := im.PacketsIn(3); err == nil {
		t.Error("PacketsIn past end accepted")
	}
	if _, err := im.Payload(1, -1); err == nil {
		t.Error("negative packet accepted")
	}
	if _, err := im.Payload(1, DefaultSegmentPackets); err == nil {
		t.Error("packet past end accepted")
	}
	if _, err := im.FlatPayload(-1); err == nil {
		t.Error("negative flat seq accepted")
	}
	if _, err := im.FlatPayload(im.TotalPackets()); err == nil {
		t.Error("flat seq past end accepted")
	}
}

func TestFlatAndSegmentedAgree(t *testing.T) {
	im, err := New(1, bytes.Repeat([]byte{7, 11, 13}, 100), WithPayloadSize(7), WithSegmentPackets(5))
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < im.TotalPackets(); seq++ {
		seg := seq/im.SegmentPackets() + 1
		pkt := seq % im.SegmentPackets()
		a, err := im.FlatPayload(seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := im.Payload(seg, pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("flat/segmented mismatch at seq %d", seq)
		}
	}
}

func TestReassembleRoundTrip(t *testing.T) {
	im, err := Random(3, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	got, err := im.Reassemble(im.Geometry(), func(seg, pkt int) []byte {
		p, err := im.Payload(seg, pkt)
		if err != nil {
			return nil
		}
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	if !im.Verify(got) {
		t.Fatal("reassembled image does not verify")
	}
	if im.Digest() != sum256(got) {
		t.Fatal("digest mismatch")
	}
}

func sum256(b []byte) [32]byte {
	im, _ := New(1, b)
	return im.Digest()
}

func TestReassembleDetectsMissingAndCorrupt(t *testing.T) {
	im, err := Random(1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := im.Reassemble(im.Geometry(), func(seg, pkt int) []byte {
		if pkt == 60 {
			return nil
		}
		p, _ := im.Payload(seg, pkt)
		return p
	}); err == nil {
		t.Error("missing packet not detected")
	}
	if _, err := im.Reassemble(im.Geometry(), func(seg, pkt int) []byte {
		p, _ := im.Payload(seg, pkt)
		if pkt == 3 {
			return p[:len(p)-1]
		}
		return p
	}); err == nil {
		t.Error("short packet not detected")
	}
}

func TestRandomIsDeterministic(t *testing.T) {
	a, err := Random(1, 2, 1234)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(1, 2, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("same seed produced different images")
	}
	c, err := Random(1, 2, 1235)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == c.Digest() {
		t.Fatal("different seeds produced identical images")
	}
	if _, err := Random(1, 0, 1); err == nil {
		t.Fatal("zero segments accepted")
	}
}

func TestBytesIsACopy(t *testing.T) {
	im, err := New(1, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b := im.Bytes()
	b[0] = 99
	if im.Bytes()[0] != 1 {
		t.Fatal("Bytes leaked internal state")
	}
}

// Property: for arbitrary data and geometry, concatenating all payloads
// reproduces the data exactly.
func TestQuickPayloadsCoverData(t *testing.T) {
	f := func(data []byte, pRaw, sRaw uint8) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		payload := int(pRaw)%32 + 1
		segPkts := int(sRaw)%16 + 1
		im, err := New(1, data, WithPayloadSize(payload), WithSegmentPackets(segPkts))
		if err != nil {
			// Geometry can overflow the 255-segment limit; that's a
			// valid rejection, not a failure.
			return im == nil
		}
		var out []byte
		for seg := 1; seg <= im.Segments(); seg++ {
			n, err := im.PacketsIn(seg)
			if err != nil {
				return false
			}
			for pkt := 0; pkt < n; pkt++ {
				p, err := im.Payload(seg, pkt)
				if err != nil {
					return false
				}
				out = append(out, p...)
			}
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
