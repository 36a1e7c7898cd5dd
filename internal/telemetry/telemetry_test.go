package telemetry

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mnp/internal/node"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// emitFixture drives a Recorder through one of every record type in a
// fixed order, standing in for a tiny run.
func emitFixture(t *testing.T, s *Stream) {
	t.Helper()
	now := time.Duration(0)
	rec, err := NewRecorder(s, func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	rec.Meta("golden", 42, 15, 640, "MNP")
	rec.Fault(30*time.Second, "reboot", "reboot node 7 at 30s for 10s")
	rec.NodeEvent(3, 1*time.Second, node.Event{Kind: node.EventStateChange, State: "rx"})
	rec.NodeEvent(3, 2*time.Second, node.Event{Kind: node.EventParentSet, Peer: 1, Seg: 2})
	rec.RadioState(4, 2500*time.Millisecond, true)
	now = 3 * time.Second
	rec.StorageOp(3, true, 2, 17, 22)
	rec.StorageOp(3, false, 2, 17, 22)
	rec.NodeEvent(3, 4*time.Second, node.Event{Kind: node.EventGotSegment, Seg: 2})
	rec.NodeEvent(5, 5*time.Second, node.Event{Kind: node.EventBecameSender, Seg: 3})
	rec.NodeEvent(3, 6*time.Second, node.Event{Kind: node.EventGotCode})
	rec.NodeEvent(7, 7*time.Second, node.Event{Kind: node.EventRebooted})
	rec.NodeEvent(7, 7*time.Second, node.Event{Kind: node.EventStoreErased})
	rec.RadioState(4, 8*time.Second, false)
	rec.Violation(9*time.Second, 5, "sender-exclusivity", "nodes 5 and 6 both sending segment 3")
	rec.Load(9500*time.Millisecond, 310, 1, 4, 5200, 64, 120000, 2)
	now = 10 * time.Second
	rec.Summary(map[string]int64{"mnp_nodes": 15, "mnp_tx_frames_total": 1234})
}

// TestGoldenStream locks the NDJSON schema: the fixture run must
// serialize byte-for-byte to testdata/golden.ndjson. A diff here means
// the on-disk format changed — bump SchemaVersion if that is intended,
// then regenerate with -update.
func TestGoldenStream(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf)
	emitFixture(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "golden.ndjson")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stream differs from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Every golden line must parse back, and the decoded stream must
	// open with the schema-versioned meta record and end with the
	// summary.
	recs, err := ReadAll(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 16 {
		t.Fatalf("got %d records, want 16", len(recs))
	}
	if recs[0].Type != TypeMeta || recs[0].V != SchemaVersion {
		t.Errorf("first record = %+v, want meta with v=%d", recs[0], SchemaVersion)
	}
	last := recs[len(recs)-1]
	if last.Type != TypeSummary || last.Counters["mnp_tx_frames_total"] != 1234 {
		t.Errorf("last record = %+v, want summary with counters", last)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Record{
		{Type: TypeMeta, V: 1, Name: "run", Seed: -3, Nodes: 64, Packets: 640, Protocol: "Deluge"},
		{Type: TypeEvent, T: 123456789, Node: 9, Kind: KindState, State: "idle"},
		{Type: TypeRadio, Node: 1, On: true},
		{Type: TypeStorage, Node: 2, Write: true, Seg: 4, Pkt: 127, Bytes: 22},
		{Type: TypeViolation, Node: 3, Rule: "write-once", Detail: "slot (0,1) rewritten"},
		{Type: TypeFault, T: 1, Kind: "crash", Detail: "crash node 5 at 20s"},
		{Type: TypeLoad, T: 9500, Win: 310, Shard: 1, Tiles: 4, Events: 5200, Delivered: 64, WaitNs: 120000, Migrations: 2},
		// Idle executor: an all-zero load row must still round-trip.
		{Type: TypeLoad, Win: 32},
		{Type: TypeSummary, Counters: map[string]int64{"a": 1, "b": -2}},
		// All-zero payload: omitempty must round-trip.
		{Type: TypeEvent},
	}
	for _, want := range cases {
		b, err := want.Encode()
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !bytes.HasSuffix(b, []byte("\n")) {
			t.Fatalf("%+v: encoded line lacks trailing newline", want)
		}
		got, err := DecodeLine(bytes.TrimSuffix(b, []byte("\n")))
		if err != nil {
			t.Fatalf("%+v: decode: %v", want, err)
		}
		if got.Type != want.Type || got.T != want.T || got.Node != want.Node ||
			got.Kind != want.Kind || got.State != want.State ||
			got.Seg != want.Seg || got.Pkt != want.Pkt || got.Peer != want.Peer ||
			got.On != want.On || got.Write != want.Write || got.Bytes != want.Bytes ||
			got.Rule != want.Rule || got.Detail != want.Detail ||
			got.Name != want.Name || got.Seed != want.Seed ||
			got.Nodes != want.Nodes || got.Packets != want.Packets ||
			got.Protocol != want.Protocol || len(got.Counters) != len(want.Counters) ||
			got.Win != want.Win || got.Shard != want.Shard || got.Tiles != want.Tiles ||
			got.Events != want.Events || got.Delivered != want.Delivered ||
			got.WaitNs != want.WaitNs || got.Migrations != want.Migrations {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
		for k, v := range want.Counters {
			if got.Counters[k] != v {
				t.Errorf("counter %q: got %d, want %d", k, got.Counters[k], v)
			}
		}
	}
}

func TestEncodeRejectsMissingType(t *testing.T) {
	if _, err := (Record{Node: 1}).Encode(); err == nil {
		t.Error("Encode accepted a record with no type")
	}
}

func TestDecodeRejectsBadLines(t *testing.T) {
	for _, line := range []string{
		"",
		"{",
		`{"node":1}`,
		`{"type":"x","zzz":1}`,
		`[1,2,3]`,
	} {
		if _, err := DecodeLine([]byte(line)); err == nil {
			t.Errorf("DecodeLine(%q) succeeded, want error", line)
		}
	}
}

func TestReadAllFailsOnBadLine(t *testing.T) {
	in := `{"type":"event","node":1}` + "\n" + "not json\n"
	if _, err := ReadAll(strings.NewReader(in)); err == nil {
		t.Error("ReadAll accepted a stream with a bad line")
	}
	// Blank lines are tolerated (trailing newline artifacts).
	recs, err := ReadAll(strings.NewReader(`{"type":"event"}` + "\n\n" + `{"type":"summary"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("got %d records, want 2", len(recs))
	}
}

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestStreamLatchesFirstError(t *testing.T) {
	s := NewStream(failWriter{})
	// The bufio layer absorbs small writes; an oversized record forces
	// a flush-through, surfacing the error, which must then latch.
	big := Record{Type: TypeEvent, Detail: strings.Repeat("x", 80<<10)}
	if err := s.Emit(big); err == nil {
		t.Fatal("Emit to a failing writer succeeded")
	}
	if got := s.Emit(Record{Type: TypeEvent}); got == nil {
		t.Error("Emit after a latched error succeeded")
	}
	if s.Err() == nil {
		t.Error("Err() returned nil after a write failure")
	}
	if s.Lines() != 0 {
		t.Errorf("Lines() = %d after failed writes, want 0", s.Lines())
	}
}

func TestCreateStreamWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	s, err := CreateStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Emit(Record{Type: TypeEvent, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Node != 1 {
		t.Errorf("got %+v, want one record for node 1", recs)
	}
	if s.Lines() != 1 {
		t.Errorf("Lines() = %d, want 1", s.Lines())
	}
}

func TestRecorderRequiresStreamAndClock(t *testing.T) {
	if _, err := NewRecorder(nil, func() time.Duration { return 0 }); err == nil {
		t.Error("NewRecorder accepted a nil stream")
	}
	if _, err := NewRecorder(NewStream(&bytes.Buffer{}), nil); err == nil {
		t.Error("NewRecorder accepted a nil clock")
	}
}

func TestRecorderUnknownEventKind(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf)
	rec, err := NewRecorder(s, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	rec.NodeEvent(1, 0, node.Event{Kind: node.EventKind(99)})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != "event-99" {
		t.Errorf("got %+v, want kind event-99", recs)
	}
}

// TestDirWritesStreamAndCounters drives a telemetry directory the way a
// run does: records through its recorder, then Finish with the final
// counters. Both files must exist, and Close after Finish is harmless.
func TestDirWritesStreamAndCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "tel")
	d, err := CreateDir(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := d.Recorder()
	rec.Meta("dir", 1, 2, 3, "MNP")
	rec.StorageOp(1, true, 0, 0, 22) // before any clock is bound: t = 0
	rec.SetClock(func() time.Duration { return time.Second })
	c := NewCounters()
	c.Set("mnp_nodes", 2)
	rec.Summary(c.Snapshot())
	line, err := d.Finish(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close after Finish: %v", err)
	}
	if !strings.Contains(line, "3 NDJSON records") {
		t.Errorf("summary line = %q", line)
	}
	f, err := os.Open(filepath.Join(path, eventsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Type != TypeMeta || recs[1].T != 0 ||
		recs[2].Type != TypeSummary || recs[2].T != int64(time.Second) {
		t.Errorf("stream = %+v", recs)
	}
	prom, err := os.ReadFile(filepath.Join(path, countersFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "mnp_nodes 2\n") {
		t.Errorf("counters dump = %q", prom)
	}
}
