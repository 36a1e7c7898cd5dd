package packet

import (
	"bytes"
	"testing"
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
