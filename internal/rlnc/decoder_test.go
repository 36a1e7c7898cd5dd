package rlnc

import (
	"bytes"
	"math/rand"
	"testing"

	"mnp/internal/image"
	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
)

// The loops the word-wide encoder and the single-pass decoder replaced,
// kept as the references the differential tests and fuzz targets
// compare against.

// encode builds one coded row c·rows over the given source packets,
// one table walk per source row: the reference for encoder.encode.
func encode(srcRows [][]byte, coeffs []byte, w int) []byte {
	payload := make([]byte, w)
	for i, c := range coeffs {
		addScaledRow(payload, srcRows[i], c)
	}
	return payload
}

// refDrawCoeffs is the coefficient draw a byte at a time.
func refDrawCoeffs(dst []byte, src packet.NodeID, seg int, attempt uint32) {
	s := uint64(src)<<40 ^ uint64(uint32(seg))<<32 ^ uint64(attempt)
	nonzero := false
	var buf uint64
	bits := 0
	for i := range dst {
		if bits == 0 {
			s += 0x9E3779B97F4A7C15
			z := s
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			buf = z ^ z>>31
			bits = 8
		}
		dst[i] = byte(buf)
		buf >>= 8
		bits--
		if dst[i] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		dst[int(attempt)%len(dst)] = 1
	}
}

// refDecoder is the decoder as first written: a fresh row per frame,
// the pivot search restarted at column 0 after every elimination, and
// back-substitution over the whole row tail.
type refDecoder struct {
	k, w, rank int
	rows       [][]byte
}

func newRefDecoder(k, w int) *refDecoder {
	return &refDecoder{k: k, w: w, rows: make([][]byte, k)}
}

func (d *refDecoder) addRow(coeffs, payload []byte) (ops int, innovative bool) {
	if len(coeffs) < d.k || len(payload) > d.w || d.rank == d.k {
		return 0, false
	}
	row := make([]byte, d.k+d.w)
	copy(row, coeffs[:d.k])
	copy(row[d.k:], payload)
	for {
		p := -1
		for i, c := range row[:d.k] {
			if c != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			return ops, false
		}
		if d.rows[p] == nil {
			scaleRow(row, gfInv(row[p]))
			ops++
			d.rows[p] = row
			d.rank++
			return ops, true
		}
		addScaledRow(row[p:], d.rows[p][p:], row[p])
		ops++
	}
}

func (d *refDecoder) reduce() (ops int) {
	for p := d.k - 1; p > 0; p-- {
		for q := 0; q < p; q++ {
			if c := d.rows[q][p]; c != 0 {
				addScaledRow(d.rows[q][p:], d.rows[p][p:], c)
				ops++
			}
		}
	}
	return ops
}

// newDecoder returns a decoder reset for one segment of k packets of
// w bytes.
func newDecoder(k, w int) *decoder {
	d := new(decoder)
	d.reset(k, w)
	return d
}

// decoderPair feeds the decoder and its reference the same rows and
// fails on the first difference in what either reports.
type decoderPair struct {
	t   testing.TB
	got *decoder
	ref *refDecoder
}

func newDecoderPair(t testing.TB, k, w int) *decoderPair {
	return &decoderPair{t: t, got: newDecoder(k, w), ref: newRefDecoder(k, w)}
}

func (dp *decoderPair) addRow(what string, coeffs, payload []byte) {
	dp.t.Helper()
	ops, innovative := dp.got.addRow(coeffs, payload)
	refOps, refInnovative := dp.ref.addRow(coeffs, payload)
	if ops != refOps || innovative != refInnovative || dp.got.rank != dp.ref.rank {
		dp.t.Fatalf("k=%d w=%d %s row: (ops %d, innovative %v, rank %d), reference (%d, %v, %d)",
			dp.got.k, dp.got.w, what, ops, innovative, dp.got.rank, refOps, refInnovative, dp.ref.rank)
	}
}

// finish back-substitutes both (the pair must be at full rank) and
// compares the operation count and every decoded packet.
func (dp *decoderPair) finish() {
	dp.t.Helper()
	if ops, refOps := dp.got.reduce(), dp.ref.reduce(); ops != refOps {
		dp.t.Fatalf("k=%d w=%d: reduce ops %d, reference %d", dp.got.k, dp.got.w, ops, refOps)
	}
	for p := 0; p < dp.got.k; p++ {
		if !bytes.Equal(dp.got.packet(p), dp.ref.rows[p][dp.ref.k:]) {
			dp.t.Fatalf("k=%d w=%d: packet %d differs from the reference", dp.got.k, dp.got.w, p)
		}
	}
}

// The shapes both differential tests sweep: k around the group size of
// the encoder table and at the protocol's limits, w around the word
// size.
var (
	diffK = []int{1, 2, 3, 4, 5, 7, 32, 127, 128, 255}
	diffW = []int{1, 7, 8, 9, 22, 23, 24, 25, 100, 255}
)

// sparse zeroes about two thirds of v.
func sparse(rng *rand.Rand, v []byte) {
	for i := range v {
		if rng.Intn(3) != 0 {
			v[i] = 0
		}
	}
}

// TestDecoderMatchesReference drives both decoders through every kind
// of row a mote can be handed — unit vectors, sparse and dense
// combinations, exact duplicates, a rank-deficient family, malformed
// lengths, short payloads — and then on to full rank.
func TestDecoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range diffK {
		for _, w := range diffW {
			src := randomSegment(rng, k, w)
			dp := newDecoderPair(t, k, w)
			coeffs := make([]byte, k)
			coded := func(what string) {
				dp.addRow(what, coeffs, encode(src, coeffs, w))
			}
			for p := 0; p < k; p += 3 {
				clear(coeffs)
				coeffs[p] = byte(1 + rng.Intn(255))
				coded("unit")
			}
			for i := 0; i < k/3+1; i++ {
				rng.Read(coeffs)
				sparse(rng, coeffs)
				coded("sparse")
				coded("duplicate")
			}
			// Four rows from the span of two vectors: at most two of
			// them can be innovative.
			u, v := make([]byte, k), make([]byte, k)
			rng.Read(u)
			rng.Read(v)
			for i := 0; i < 4; i++ {
				clear(coeffs)
				addScaledRow(coeffs, u, byte(rng.Intn(256)))
				addScaledRow(coeffs, v, byte(rng.Intn(256)))
				coded("rank-deficient")
			}
			rng.Read(coeffs)
			dp.addRow("short-coefficient", coeffs[:k-1], make([]byte, w))
			dp.addRow("oversized-payload", coeffs, make([]byte, w+1))
			dp.addRow("short-payload", coeffs, encode(src, coeffs, w)[:w-1])
			clear(coeffs)
			coded("zero")
			for tries := 0; !dp.got.complete(); tries++ {
				if tries > 2*k+50 {
					t.Fatalf("k=%d w=%d: no full rank", k, w)
				}
				rng.Read(coeffs)
				coded("dense")
			}
			coded("after-complete")
			dp.finish()
		}
	}
}

// TestEncoderMatchesReference: one encoder, refilled for every shape
// (so the kept buffer is exercised growing and shrinking), must equal
// the row-at-a-time loop byte for byte — k off the group size, w off
// the word size, a short final packet, and coefficient vectors with
// whole groups zero.
func TestEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var enc encoder
	for _, k := range diffK {
		for _, w := range diffW {
			src := randomSegment(rng, k, w)
			stored := make([][]byte, k)
			copy(stored, src)
			// The image's final packet is stored short; the encoder
			// must pad it as the reference rows are padded.
			tail := rng.Intn(w) + 1
			stored[k-1] = src[k-1][:tail]
			clear(src[k-1][tail:])
			if !enc.fill(1, k, w, func(i int) []byte { return stored[i] }) {
				t.Fatalf("k=%d w=%d: fill failed", k, w)
			}
			coeffs := make([]byte, k)
			got := make([]byte, w)
			check := func(what string) {
				t.Helper()
				rng.Read(got) // encode must overwrite, not accumulate
				enc.encode(got, coeffs)
				if want := encode(src, coeffs, w); !bytes.Equal(got, want) {
					t.Fatalf("k=%d w=%d %s coefficients %x:\n got %x\nwant %x", k, w, what, coeffs, got, want)
				}
			}
			check("zero")
			for p := 0; p < k; p++ {
				clear(coeffs)
				coeffs[p] = byte(1 + rng.Intn(255))
				check("unit")
			}
			for i := 0; i < 8; i++ {
				rng.Read(coeffs)
				check("dense")
				sparse(rng, coeffs)
				check("sparse")
				for g := 0; g < k; g += 2 * groupRows {
					clear(coeffs[g:min(g+groupRows, k)])
				}
				check("zero-group")
			}
			for c := 0; c < 256; c += 5 {
				for i := range coeffs {
					coeffs[i] = byte(c)
				}
				check("constant")
			}
		}
	}
	if enc.fill(2, 4, 8, func(i int) []byte { return nil }) || enc.seg != 0 {
		t.Fatal("a missing row must leave no segment tabulated")
	}
}

// The bounds the single-pass decoder and the table encoder are held
// to: folding a frame into the basis allocates nothing, nor does a
// coded frame once its buffer exists; the decoder's slab and the
// encoder's table (12 KB at the default geometry) both survive a
// change of segment.
func TestCodingAllocations(t *testing.T) {
	const k, w = 128, 22
	rng := rand.New(rand.NewSource(23))
	src := randomSegment(rng, k, w)
	d := newDecoder(k, w)
	coeffs := make([]byte, k)
	if n := testing.AllocsPerRun(k/2, func() {
		rng.Read(coeffs)
		d.addRow(coeffs, src[0])
	}); n != 0 {
		t.Errorf("addRow allocates %v objects per frame, want 0", n)
	}

	// A warm decoder takes the next segment, and a shorter final one,
	// in the slab it has; a wider segment regrows it once.
	decodeSegment := func(k, w int) {
		d.reset(k, w)
		for tries := 0; !d.complete(); tries++ {
			if tries > 2*k {
				t.Fatalf("a reset decoder did not reach rank %d", k)
			}
			rng.Read(coeffs[:k])
			d.addRow(coeffs[:k], src[0])
		}
		d.reduce()
	}
	slab := &d.slab[0]
	for _, seg := range []struct {
		what string
		k    int
	}{{"another", k}, {"a shorter final", k/2 + 3}} {
		if n := testing.AllocsPerRun(3, func() { decodeSegment(seg.k, w) }); n != 0 || &d.slab[0] != slab {
			t.Errorf("decoding %s segment allocates %v objects (slab kept: %v), want 0 in the same slab",
				seg.what, n, &d.slab[0] == slab)
		}
	}
	regrown := 0
	for i := 0; i < 3; i++ {
		decodeSegment(k, 2*w)
		if &d.slab[0] != slab {
			slab = &d.slab[0]
			regrown++
		}
	}
	if regrown != 1 {
		t.Errorf("three segments of %d-byte payloads regrew a %d-byte slab %d times, want once", 2*w, w, regrown)
	}

	// A mote that stored segment 1 decodes segment 2 in the same slab,
	// and segment 1's EEPROM bytes stay as stored: no view into the
	// slab outlives the flush.
	sent, got := nodetest.New(0), nodetest.New(1)
	base, mote := New(Config{Base: true, Image: im2(t)}), New(Config{})
	sent.Attach(base)
	got.Attach(mote)
	base.advTick()
	got.Deliver(sent.Sent[len(sent.Sent)-1], 0)
	var moteSlab *byte
	for seg := 1; seg <= 2; seg++ {
		for tries := 0; mote.completeSegs < seg; tries++ {
			if tries > 2*k {
				t.Fatalf("segment %d did not decode", seg)
			}
			base.sendCoded(seg)
			got.Deliver(sent.Sent[len(sent.Sent)-1], 0)
		}
		if seg == 1 {
			moteSlab = &mote.dec.slab[0]
		}
	}
	if &mote.dec.slab[0] != moteSlab {
		t.Error("the mote decoded segment 2 in a new slab")
	}
	for i := 0; i < k; i++ {
		want, _ := base.cfg.Image.Payload(1, i)
		if !bytes.Equal(got.Load(1, i), want) {
			t.Fatalf("segment 1 packet %d changed in EEPROM while segment 2 decoded", i)
		}
	}

	rt := quietRuntime{nodetest.New(0)}
	r := New(Config{Base: true, Image: im2(t)})
	r.Init(rt)
	r.sendCoded(1)
	if n := testing.AllocsPerRun(100, func() { r.sendCoded(1) }); n != 0 {
		t.Errorf("a warmed sendCoded allocates %v objects, want 0 (the frame buffer and message are reused)", n)
	}
	if size := 8 * len(r.enc.table); r.enc.k != k || r.payloadLen != w || size > 16<<10 {
		t.Errorf("table for %dx%d is %d bytes, want <= 16 KB at %dx%d", r.enc.k, r.payloadLen, size, k, w)
	}
	table := &r.enc.table[0]
	r.sendCoded(2)
	if r.enc.seg != 2 || &r.enc.table[0] != table {
		t.Error("serving another segment reallocated the encoder table")
	}
}

// im2 is a two-segment image of the default geometry.
func im2(t *testing.T) *image.Image {
	t.Helper()
	im, err := image.Random(1, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// quietRuntime drops sends instead of recording them, so allocation
// counts see the protocol alone.
type quietRuntime struct{ *nodetest.Runtime }

func (quietRuntime) Send(packet.Packet) error { return nil }

// fullRuntime is a mote whose MAC queue is full while *full is set. It
// counts the reads the protocol makes and fails the test if a frame is
// handed to a queue that was asked and said no.
type fullRuntime struct {
	*nodetest.Runtime
	t     *testing.T
	full  *bool
	loads *int
}

func (f fullRuntime) QueueFull() bool { return *f.full }

func (f fullRuntime) Load(seg, pkt int) []byte {
	*f.loads++
	return f.Runtime.Load(seg, pkt)
}

func (f fullRuntime) Send(p packet.Packet) error {
	if *f.full {
		f.t.Error("sendCoded built a frame for a full queue")
	}
	return f.Runtime.Send(p)
}

// A frame the MAC queue would refuse is not encoded, and nothing else
// about serving changes: the attempt is spent, the encoder table is
// filled (its reads are the mote's EEPROM traffic) and the next frame
// that does go out is the one a mote that encoded every refused frame
// would have sent.
func TestSendCodedSkipsRefusedFrame(t *testing.T) {
	im, err := image.Random(1, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	var full bool
	var loads, refLoads int
	rt := fullRuntime{nodetest.New(0), t, &full, &loads}
	ref := fullRuntime{nodetest.New(0), t, new(bool), &refLoads}
	r, want := New(Config{Base: true, Image: im}), New(Config{Base: true, Image: im})
	r.Init(rt)
	want.Init(ref)
	for i, step := range []struct {
		seg  int
		full bool
	}{{1, true}, {1, false}, {2, true}, {2, true}, {2, false}, {1, false}} {
		full = step.full
		sent := len(rt.Sent)
		r.sendCoded(step.seg)
		want.sendCoded(step.seg)
		if r.attempt != want.attempt || loads != refLoads || r.enc.seg != want.enc.seg {
			t.Fatalf("step %d: attempt %d loads %d table for segment %d; encoding every frame gives %d, %d, %d",
				i, r.attempt, loads, r.enc.seg, want.attempt, refLoads, want.enc.seg)
		}
		if step.full {
			if len(rt.Sent) != sent {
				t.Fatalf("step %d: a frame was queued on a full queue", i)
			}
			continue
		}
		got, exp := rt.Sent[len(rt.Sent)-1].(*packet.RlncData), ref.Sent[len(ref.Sent)-1].(*packet.RlncData)
		if !bytes.Equal(got.Coeffs, exp.Coeffs) || !bytes.Equal(got.Payload, exp.Payload) || got.Seg != exp.Seg {
			t.Fatalf("step %d: frame after refused attempts differs from the frame of the same attempt", i)
		}
	}
}

func randomSegment(rng *rand.Rand, k, w int) [][]byte {
	rows := make([][]byte, k)
	for i := range rows {
		rows[i] = make([]byte, w)
		rng.Read(rows[i])
	}
	return rows
}

// Round trip: random combinations of a random segment decode back to
// the exact source packets, for a spread of segment geometries
// including k=1 and the short-last-segment shapes.
func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ k, w int }{
		{1, 22}, {2, 22}, {7, 22}, {32, 22}, {128, 22}, {5, 1}, {16, 100},
	} {
		src := randomSegment(rng, shape.k, shape.w)
		d := newDecoder(shape.k, shape.w)
		coeffs := make([]byte, shape.k)
		received := 0
		for !d.complete() {
			rng.Read(coeffs)
			received++
			if received > 20*shape.k+50 {
				t.Fatalf("k=%d w=%d: no full rank after %d rows", shape.k, shape.w, received)
			}
			ops, innovative := d.addRow(coeffs, encode(src, coeffs, shape.w))
			if innovative && ops == 0 {
				t.Fatalf("k=%d: innovative row reported zero ops", shape.k)
			}
		}
		d.reduce()
		for p := 0; p < shape.k; p++ {
			if !bytes.Equal(d.packet(p), src[p]) {
				t.Fatalf("k=%d w=%d: packet %d decoded wrong", shape.k, shape.w, p)
			}
		}
		// Random coding needs barely more than k receptions.
		if received > shape.k+10 {
			t.Errorf("k=%d: %d receptions for rank %d — coefficients are not behaving randomly",
				shape.k, received, shape.k)
		}
	}
}

// Dependent and duplicate rows must be absorbed without rank change,
// and short coefficient vectors rejected outright.
func TestDecoderRejectsNonInnovative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	k, w := 8, 22
	src := randomSegment(rng, k, w)
	d := newDecoder(k, w)

	c1 := make([]byte, k)
	rng.Read(c1)
	if _, innovative := d.addRow(c1, encode(src, c1, w)); !innovative {
		t.Fatal("first row not innovative")
	}
	if _, innovative := d.addRow(c1, encode(src, c1, w)); innovative {
		t.Fatal("duplicate row counted as innovative")
	}
	// A scaled copy of an existing basis row is dependent too.
	c2 := append([]byte(nil), c1...)
	scaleRow(c2, 3)
	if _, innovative := d.addRow(c2, encode(src, c2, w)); innovative {
		t.Fatal("scaled duplicate counted as innovative")
	}
	if d.rank != 1 {
		t.Fatalf("rank = %d after duplicates, want 1", d.rank)
	}

	if _, innovative := d.addRow(c1[:k-1], make([]byte, w)); innovative {
		t.Fatal("short coefficient vector accepted")
	}
	if _, innovative := d.addRow(c1, make([]byte, w+1)); innovative {
		t.Fatal("oversized payload accepted")
	}
	if _, innovative := d.addRow(make([]byte, k), make([]byte, w)); innovative {
		t.Fatal("all-zero coefficient vector accepted")
	}
}

// drawCoeffs is a pure function of (src, seg, attempt) and never
// returns the all-zero vector.
func TestDrawCoeffsDeterministicAndNonzero(t *testing.T) {
	a, b := make([]byte, 32), make([]byte, 32)
	drawCoeffs(a, 5, 3, 77)
	drawCoeffs(b, 5, 3, 77)
	if !bytes.Equal(a, b) {
		t.Fatal("same (src, seg, attempt) drew different coefficients")
	}
	drawCoeffs(b, 5, 3, 78)
	if bytes.Equal(a, b) {
		t.Fatal("different attempts drew identical coefficients")
	}
	drawCoeffs(b, 6, 3, 77)
	if bytes.Equal(a, b) {
		t.Fatal("different senders drew identical coefficients")
	}
	for attempt := uint32(0); attempt < 2000; attempt++ {
		v := make([]byte, 4)
		drawCoeffs(v, 1, 1, attempt)
		if bytes.Equal(v, make([]byte, 4)) {
			t.Fatalf("attempt %d drew the all-zero vector", attempt)
		}
	}
}

// The word-at-a-time draw lays down the bytes the byte-at-a-time one
// did, at every length around the word size, and falls back to the same
// unit vector.
func TestDrawCoeffsMatchesReference(t *testing.T) {
	fallbacks := 0
	for n := 1; n <= 40; n++ {
		got, want := make([]byte, n), make([]byte, n)
		for attempt := uint32(0); attempt < 2000; attempt++ {
			drawCoeffs(got, 5, 3, attempt)
			refDrawCoeffs(want, 5, 3, attempt)
			if !bytes.Equal(got, want) {
				t.Fatalf("len %d attempt %d: drew %x, reference %x", n, attempt, got, want)
			}
			// The stream's first byte is zero once in 256 attempts,
			// and a one-byte vector then takes the fallback.
			if n == 2 && want[0] == 0 {
				drawCoeffs(got[:1], 5, 3, attempt)
				if got[0] != 1 {
					t.Fatalf("attempt %d: all-zero draw became %x, want the unit vector", attempt, got[:1])
				}
				fallbacks++
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("the all-zero fallback was never exercised")
	}
}

// FuzzRLNCDecode feeds arbitrary row material into a small decoder and
// its reference side by side: every row must report the same (ops,
// innovative) and leave the same rank, rank is monotone and bounded by
// k, and addRow never panics. Random rows then complete whatever basis
// the fuzz rows built; both must back-substitute to the same packets,
// and those packets must satisfy every row that was accepted. The
// decoder is then reset, as a mote's is, for a second segment whose
// shape the input's first byte picks — narrower, equal or wider — and
// the same rows go through again against a fresh reference, so a row
// of the first segment that survives the reset fails the test.
func FuzzRLNCDecode(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 9, 9, 9})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Add([]byte{2, 4, 8, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0x2B, 1, 0, 0, 0, 9, 9, 9, 7, 0, 1, 0, 0, 0, 0, 0, 3}) // the second segment is 4×6 again
	f.Fuzz(func(t *testing.T, data []byte) {
		var pick int
		if len(data) > 0 {
			pick = int(data[0])
		}
		var d decoder
		for seg, shape := range [][2]int{{4, 6}, {1 + pick%8, 1 + pick/8%8}} {
			k, w := shape[0], shape[1]
			d.reset(k, w)
			fuzzSegment(t, &decoderPair{t: t, got: &d, ref: newRefDecoder(k, w)}, data, int64(seg))
		}
	})
}

// fuzzSegment is one segment of FuzzRLNCDecode: the input's rows, then
// random rows (seeded by seed) to full rank, then the checks.
func fuzzSegment(t *testing.T, dp *decoderPair, data []byte, seed int64) {
	k, w := dp.ref.k, dp.ref.w
	var accepted [][]byte // [coeffs | zero-padded payload] of innovative rows
	add := func(what string, coeffs, payload []byte) {
		before := dp.got.rank
		dp.addRow(what, coeffs, payload)
		if dp.got.rank < before || dp.got.rank > k {
			t.Fatalf("rank %d -> %d (k=%d)", before, dp.got.rank, k)
		}
		if dp.got.rank == before+1 {
			row := make([]byte, k+w)
			copy(row, coeffs[:k])
			copy(row[k:], payload)
			accepted = append(accepted, row)
		}
	}
	// Slice the fuzz input into (coeffs, payload) chunks of varying
	// shape, including deliberately short and long ones.
	for len(data) > 0 {
		n := int(data[0])%(k+w+4) + 1
		if n > len(data) {
			n = len(data)
		}
		chunk := data[:n]
		data = data[n:]
		cut := len(chunk) / 2
		add("fuzz", chunk[:cut], chunk[cut:])
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]byte, k+w)
	for tries := 0; !dp.got.complete(); tries++ {
		if tries > 200 {
			t.Fatal("random rows failed to reach full rank")
		}
		rng.Read(row)
		add("completing", row[:k], row[k:])
	}
	dp.finish()
	decoded := make([][]byte, k)
	for p := range decoded {
		decoded[p] = dp.got.packet(p)
	}
	for _, row := range accepted {
		if !bytes.Equal(encode(decoded, row[:k], w), row[k:]) {
			t.Fatalf("k=%d w=%d: decoded packets do not satisfy accepted row %x", k, w, row)
		}
	}
}

// FuzzRLNCEncode picks a segment shape, its source bytes, the length of
// a short final packet and a run of coefficient vectors from the fuzz
// input, and requires the table encoder to equal the row-at-a-time
// loop on every one.
func FuzzRLNCEncode(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{4, 7, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{0xFF}, 300))
	f.Add(append([]byte{6, 21, 9}, bytes.Repeat([]byte{0x80, 0, 0x1D, 1}, 60)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k, w := 1+int(data[0])%13, 1+int(data[1])%26
		tail := 1 + int(data[2])%w
		data = data[3:]
		take := func(n int) []byte { // the next n input bytes, zeros once it runs dry
			out := make([]byte, n)
			data = data[copy(out, data):]
			return out
		}
		src, stored := make([][]byte, k), make([][]byte, k)
		for i := range src {
			src[i] = take(w)
			stored[i] = src[i]
		}
		stored[k-1] = src[k-1][:tail]
		clear(src[k-1][tail:])
		var enc encoder
		if !enc.fill(1, k, w, func(i int) []byte { return stored[i] }) {
			t.Fatal("fill failed")
		}
		got := make([]byte, w)
		for first := true; first || len(data) > 0; first = false {
			coeffs := take(k)
			enc.encode(got, coeffs)
			if want := encode(src, coeffs, w); !bytes.Equal(got, want) {
				t.Fatalf("k=%d w=%d coefficients %x:\n got %x\nwant %x", k, w, coeffs, got, want)
			}
		}
	})
}

// BenchmarkRLNCDecode measures decoding one full 128-packet segment of
// 22-byte payloads through a warm decoder, reset per segment as a
// mote's is — the per-segment CPU cost a mote pays. Bench's traced
// pass counts the same row operations end to end as rlnc.decode_ops.
func BenchmarkRLNCDecode(b *testing.B) {
	const k, w = 128, 22
	rng := rand.New(rand.NewSource(42))
	src := randomSegment(rng, k, w)
	// Pre-draw more coded rows than a decode consumes so the timed loop
	// does no RNG work.
	type coded struct{ coeffs, payload []byte }
	rows := make([]coded, k+16)
	for i := range rows {
		c := make([]byte, k)
		rng.Read(c)
		rows[i] = coded{coeffs: c, payload: encode(src, c, w)}
	}
	var d decoder
	b.SetBytes(int64(k * w))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.reset(k, w)
		for _, r := range rows {
			if d.complete() {
				break
			}
			d.addRow(r.coeffs, r.payload)
		}
		if !d.complete() {
			b.Fatal("segment did not decode")
		}
		d.reduce()
	}
}

// The default geometry: 128-packet segments of 22-byte payloads.
const benchK, benchW = 128, 22

// benchEncodeSetup returns an encoder tabulated with one random
// segment of the default geometry, and the segment.
func benchEncodeSetup() (*encoder, [][]byte) {
	src := randomSegment(rand.New(rand.NewSource(42)), benchK, benchW)
	enc := new(encoder)
	enc.fill(1, benchK, benchW, func(i int) []byte { return src[i] })
	return enc, src
}

var benchSink, coeffSink []byte

// BenchmarkRLNCEncode measures what one coded frame costs a serving
// mote's host: the frame buffer, the coefficient draw and the encode
// against a filled table, at the default 128×22 geometry.
func BenchmarkRLNCEncode(b *testing.B) {
	enc, _ := benchEncodeSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := make([]byte, benchK+benchW)
		coeffs, payload := buf[:benchK:benchK], buf[benchK:]
		drawCoeffs(coeffs, 7, 1, uint32(i))
		enc.encode(payload, coeffs)
		benchSink = buf
	}
}

// BenchmarkRLNCEncodeReference is the same frame through the loops the
// table replaced (two buffers, a byte-at-a-time draw, one table walk
// per source row): the "before" of BenchmarkRLNCEncode, measurable on
// any revision.
func BenchmarkRLNCEncodeReference(b *testing.B) {
	_, src := benchEncodeSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coeffs := make([]byte, benchK)
		refDrawCoeffs(coeffs, 7, 1, uint32(i))
		benchSink, coeffSink = encode(src, coeffs, benchW), coeffs // both left in the packet
	}
}

// BenchmarkRLNCEncodeFill measures tabulating one 128×22 segment into a
// kept buffer — paid once each time a mote starts serving a segment.
func BenchmarkRLNCEncodeFill(b *testing.B) {
	enc, src := benchEncodeSetup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.fill(1+i&1, benchK, benchW, func(i int) []byte { return src[i] })
	}
}

// An advertisement whose geometry no image has — a last segment that is
// empty or longer than a segment — is not learned from: learning it
// would size a decoder for a segment no coded frame can complete.
func TestAdvGeometryMustBeAnImages(t *testing.T) {
	for _, tc := range []struct {
		total uint16
		learn bool
	}{{65535, false}, {8, false}, {12, true}, {9, true}} {
		rt := nodetest.New(1)
		r := New(Config{})
		rt.Attach(r)
		rt.Deliver(&packet.RlncAdv{Src: 0, ProgramID: 1, Segments: 3, SegPackets: 4,
			TotalPackets: tc.total, PayloadLen: 8, Tail: 8, CompleteSegs: 3}, 0)
		if r.known() != tc.learn {
			t.Errorf("3 segments of 4 packets, %d in all: learned %v, want %v", tc.total, r.known(), tc.learn)
		}
	}
}

// A base whose coded frames cannot fit — 128 coefficients and a 200-byte
// payload overflow the frame's length byte — fails at Init instead of
// having every frame refused at Send.
func TestBaseRefusesImageTooWideForAFrame(t *testing.T) {
	for _, tc := range []struct {
		payload int
		fits    bool
	}{{200, false}, {22, true}} {
		im, err := image.Random(1, 1, 42, image.WithPayloadSize(tc.payload))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if e := recover(); (e == nil) != tc.fits {
					t.Errorf("%d-byte payloads: Init panic %v, want a panic %v", tc.payload, e, !tc.fits)
				}
			}()
			nodetest.New(0).Attach(New(Config{Base: true, Image: im}))
		}()
	}
}
