// Package image models the program image being disseminated: its
// division into segments and packets, and reassembly/verification on
// the receiving side.
//
// MNP divides a program into segments of a fixed number of packets
// (128 in the paper, so that a segment's loss bitmap fits into a radio
// packet) and each packet carries a fixed-size payload (22 bytes). The
// final segment and final packet may be short.
package image

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
)

const (
	// DefaultSegmentPackets is the paper's segment size: 128 packets,
	// so a MissingVector is at most 16 bytes.
	DefaultSegmentPackets = 128
	// DefaultPayloadSize is the paper's per-packet data payload.
	DefaultPayloadSize = 22
	// SegmentBytes is the data volume of one full segment
	// (128 × 22 B = 2816 B ≈ 2.8 KB, matching the paper's
	// "1 segment (2.8KB) … 10 segments (28.2KB)" program sizes).
	SegmentBytes = DefaultSegmentPackets * DefaultPayloadSize
)

// Image is an immutable program image plus its packetization geometry.
type Image struct {
	programID   uint8
	data        []byte
	payloadSize int
	segPackets  int      // set by the options
	geom        Geometry // segPackets-packet segments over the data
}

// Option customizes image geometry.
type Option func(*Image)

// WithPayloadSize overrides the per-packet payload size.
func WithPayloadSize(n int) Option {
	return func(im *Image) { im.payloadSize = n }
}

// WithSegmentPackets overrides the packets-per-segment count.
func WithSegmentPackets(n int) Option {
	return func(im *Image) { im.segPackets = n }
}

// New wraps data as a program image. The data is copied.
func New(programID uint8, data []byte, opts ...Option) (*Image, error) {
	im := &Image{
		programID:   programID,
		data:        append([]byte(nil), data...),
		payloadSize: DefaultPayloadSize,
		segPackets:  DefaultSegmentPackets,
	}
	for _, o := range opts {
		o(im)
	}
	if len(im.data) == 0 {
		return nil, fmt.Errorf("image: empty program data")
	}
	if im.payloadSize <= 0 || im.payloadSize > 200 {
		return nil, fmt.Errorf("image: payload size %d out of range (0, 200]", im.payloadSize)
	}
	if im.segPackets <= 0 || im.segPackets > 128 {
		return nil, fmt.Errorf("image: segment packets %d out of range (0, 128]", im.segPackets)
	}
	// Data and segPackets are non-empty by the checks above, so Split
	// cannot fail.
	im.geom, _ = Split((len(im.data)+im.payloadSize-1)/im.payloadSize, im.segPackets)
	if im.Segments() > 255 {
		return nil, fmt.Errorf("image: %d segments exceeds the 1-byte segment ID space", im.Segments())
	}
	return im, nil
}

// Random builds a deterministic pseudo-random image of exactly
// segments full segments, seeded by seed. Experiments use it so that a
// run is reproducible and reassembled images can be verified
// byte-for-byte.
func Random(programID uint8, segments int, seed int64, opts ...Option) (*Image, error) {
	if segments <= 0 {
		return nil, fmt.Errorf("image: segments must be positive, got %d", segments)
	}
	probe, err := New(programID, []byte{0}, opts...)
	if err != nil {
		return nil, err
	}
	size := segments * probe.segPackets * probe.payloadSize
	data := make([]byte, size)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(data)
	return New(programID, data, opts...)
}

// ProgramID returns the image's program identifier.
func (im *Image) ProgramID() uint8 { return im.programID }

// Size returns the program size in bytes.
func (im *Image) Size() int { return len(im.data) }

// PayloadSize returns the per-packet payload size.
func (im *Image) PayloadSize() int { return im.payloadSize }

// SegmentPackets returns the nominal packets-per-segment count.
func (im *Image) SegmentPackets() int { return im.segPackets }

// TotalPackets returns the number of packets across all segments.
func (im *Image) TotalPackets() int { return im.geom.Total() }

// Segments returns the number of segments. Segment IDs are 1-based,
// 1..Segments().
func (im *Image) Segments() int { return im.geom.Units() }

// Geometry returns the image's own segment geometry, the flash layout
// of protocols that store packets by the image's segments.
func (im *Image) Geometry() Geometry { return im.geom }

// PacketsIn returns the number of packets in segment seg (1-based);
// only the final segment may be short.
func (im *Image) PacketsIn(seg int) (int, error) {
	n := im.geom.PacketsIn(seg)
	if n == 0 {
		return 0, fmt.Errorf("image: segment %d out of range [1,%d]", seg, im.Segments())
	}
	return n, nil
}

// Payload returns the payload of packet pkt (0-based) in segment seg
// (1-based). The final packet of the image may be shorter than
// PayloadSize.
func (im *Image) Payload(seg, pkt int) ([]byte, error) {
	n, err := im.PacketsIn(seg)
	if err != nil {
		return nil, err
	}
	if pkt < 0 || pkt >= n {
		return nil, fmt.Errorf("image: packet %d out of range [0,%d) in segment %d", pkt, n, seg)
	}
	return im.FlatPayload(im.geom.Seq(seg, pkt))
}

// FlatPayload returns the payload of packet seq in flat (whole-image)
// numbering, 0-based. MOAP and XNP address packets this way.
func (im *Image) FlatPayload(seq int) ([]byte, error) {
	if seq < 0 || seq >= im.TotalPackets() {
		return nil, fmt.Errorf("image: flat packet %d out of range [0,%d)", seq, im.TotalPackets())
	}
	return append([]byte(nil), im.packet(seq)...), nil
}

// packet returns the bytes of packet seq, a view into the image.
func (im *Image) packet(seq int) []byte {
	lo := seq * im.payloadSize
	return im.data[lo:min(lo+im.payloadSize, len(im.data))]
}

// Digest returns the SHA-256 of the program data; receivers compare it
// against the digest of their reassembled image to check the paper's
// accuracy requirement ("the exact program image is received").
func (im *Image) Digest() [sha256.Size]byte {
	return sha256.Sum256(im.data)
}

// Bytes returns a copy of the raw program data.
func (im *Image) Bytes() []byte {
	return append([]byte(nil), im.data...)
}

// Reassemble rebuilds the image from per-packet payloads stored in
// geometry g; get must return the payload stored for (unit, pkt) or nil
// if absent. It fails on the first missing or mis-sized packet.
func (im *Image) Reassemble(g Geometry, get func(unit, pkt int) []byte) ([]byte, error) {
	if g.Total() != im.TotalPackets() {
		return nil, fmt.Errorf("image: geometry of %d packets for a %d-packet image", g.Total(), im.TotalPackets())
	}
	out := make([]byte, 0, len(im.data))
	for seq := 0; seq < g.Total(); seq++ {
		u, pkt := g.Slot(seq)
		p := get(u, pkt)
		if p == nil {
			return nil, fmt.Errorf("image: packet (%d,%d) missing", u, pkt)
		}
		if want := len(im.packet(seq)); len(p) != want {
			return nil, fmt.Errorf("image: packet (%d,%d) is %d bytes, want %d", u, pkt, len(p), want)
		}
		out = append(out, p...)
	}
	return out, nil
}

// Verify reports whether reassembled data matches the image exactly.
func (im *Image) Verify(data []byte) bool {
	return bytes.Equal(im.data, data)
}
