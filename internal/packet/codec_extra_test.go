package packet

import (
	"bytes"
	"testing"

	"mnp/internal/race"
)

// AppendEncode into a non-empty buffer appends exactly the bytes Encode
// produces, reusing the destination's capacity.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	for _, p := range samplePackets() {
		want := Encode(p)
		prefix := []byte{0xde, 0xad}
		buf := make([]byte, 2, 128)
		copy(buf, prefix)
		got := AppendEncode(buf, p)
		if !bytes.Equal(got[:2], prefix) {
			t.Fatalf("%s: AppendEncode clobbered the prefix", p.Kind())
		}
		if !bytes.Equal(got[2:], want) {
			t.Fatalf("%s: AppendEncode = % x, want % x", p.Kind(), got[2:], want)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%s: AppendEncode reallocated despite capacity", p.Kind())
		}
	}
}

// DecodeTrusted round-trips frames identically to Decode, and skips
// only the CRC check: a corrupted CRC passes DecodeTrusted but a
// malformed structure still fails.
func TestDecodeTrusted(t *testing.T) {
	for _, p := range samplePackets() {
		frame := Encode(p)
		viaDecode, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		viaTrusted, err := DecodeTrusted(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(Encode(viaDecode), Encode(viaTrusted)) {
			t.Fatalf("%s: Decode and DecodeTrusted disagree", p.Kind())
		}

		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] ^= 0xFF // break the CRC only
		if _, err := Decode(bad); err == nil {
			t.Fatalf("%s: Decode accepted a bad CRC", p.Kind())
		}
		if _, err := DecodeTrusted(bad); err != nil {
			t.Fatalf("%s: DecodeTrusted rejected a frame with bad CRC: %v", p.Kind(), err)
		}

		if _, err := DecodeTrusted(frame[:3]); err == nil {
			t.Fatalf("%s: DecodeTrusted accepted a truncated frame", p.Kind())
		}
		if k, err := FrameKind(frame); err != nil || k != p.Kind() {
			t.Fatalf("%s: FrameKind = %v, %v", p.Kind(), k, err)
		}
		if _, err := FrameKind(frame[:len(frame)-1]); err == nil {
			t.Fatalf("%s: FrameKind accepted a frame shorter than its length field", p.Kind())
		}
	}
}

// crc16Reference is the original bit-at-a-time CCITT implementation the
// table-driven crc16 replaced.
func crc16Reference(data []byte) uint16 {
	var crc uint16 = 0xFFFF
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRCTableMatchesBitwiseReference(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		{0xFF},
		[]byte("123456789"),
		bytes.Repeat([]byte{0xA5, 0x5A}, 100),
	}
	// Every length 0–300, so each tail the four-byte step leaves (0 to
	// 3 bytes) follows every count of whole steps a frame can have.
	for n := 0; n <= 300; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(n)*7 + byte(i)*13
		}
		inputs = append(inputs, b)
	}
	for _, in := range inputs {
		if got, want := crc16(in), crc16Reference(in); got != want {
			t.Fatalf("crc16(% x) = %#04x, want %#04x", in, got, want)
		}
	}
}

// A coded frame is wider than a MAC slot's 64-byte buffer: encoding one
// there grows the buffer once, not once per field it appends.
func TestAppendEncodeGrowsWideFrameOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	p := &RlncData{Src: 3, ProgramID: 1, Seg: 2, Coeffs: make([]byte, 128), Payload: make([]byte, 22)}
	for i := range p.Coeffs {
		p.Coeffs[i] = byte(i)
	}
	slot := make([]byte, 0, 64)
	var frame []byte
	if n := testing.AllocsPerRun(100, func() { frame = AppendEncode(slot, p) }); n != 1 {
		t.Errorf("encoding a %d-byte frame into a 64-byte slot allocates %v times, want 1", len(frame), n)
	}
	if !bytes.Equal(frame, Encode(p)) {
		t.Fatal("the frame encoded into a slot differs from Encode's")
	}
}
