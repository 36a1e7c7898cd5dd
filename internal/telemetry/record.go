// Package telemetry is the machine-readable observability layer of the
// simulator: it streams everything a run observes — protocol events,
// radio transitions, EEPROM traffic, invariant violations, the fault
// plan — as schema-versioned NDJSON (one JSON object per line,
// jq-friendly), exports the run's aggregate counters through expvar and
// a Prometheus-style text dump, and provides the profiling hooks
// (pprof server, CPU profile, runtime/trace capture) and live stderr
// progress the long-running CLIs use.
//
// Everything in this package is opt-in: a run with no telemetry
// attached executes byte-identically to one without the package linked
// at all, which is what keeps the golden determinism hashes valid.
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// SchemaVersion identifies the NDJSON record layout. It is carried by
// the run's meta record (the first line of every stream) so consumers
// can reject files written by an incompatible writer.
const SchemaVersion = 1

// Record types. Every NDJSON line carries exactly one of these in its
// "type" field.
const (
	TypeMeta      = "meta"      // first line: run identity + schema version
	TypeEvent     = "event"     // protocol observation (state, segment, …)
	TypeRadio     = "radio"     // radio power transition
	TypeStorage   = "storage"   // EEPROM read/write
	TypeViolation = "violation" // online invariant breach
	TypeFault     = "fault"     // scheduled fault-plan event
	TypeLoad      = "load"      // engine per-period executor load sample
	TypeSummary   = "summary"   // last line: final counter values
)

// Event kind labels for TypeEvent records, mirroring node.EventKind.
const (
	KindState   = "state"
	KindParent  = "parent"
	KindSegment = "segment"
	KindCode    = "code"
	KindSender  = "sender"
	KindReboot  = "reboot"
	KindErase   = "erase"
	KindDecode  = "decode"
)

// Record is one NDJSON line. The struct is deliberately flat: every
// record type uses the subset of fields it needs and omits the rest, so
// a zero field and an absent field are interchangeable (which is also
// what makes encode/decode round-trips exact).
type Record struct {
	// V is the schema version; only the meta record carries it.
	V int `json:"v,omitempty"`
	// Type discriminates the record (TypeMeta, TypeEvent, …).
	Type string `json:"type"`
	// T is the simulated time in nanoseconds.
	T int64 `json:"t_ns,omitempty"`
	// Node is the observed node ID (absent means node 0 or not
	// node-scoped).
	Node int `json:"node,omitempty"`

	// Kind labels TypeEvent records (KindState…) and TypeFault records
	// (the fault kind, e.g. "reboot").
	Kind string `json:"kind,omitempty"`
	// State is the new protocol state for KindState events.
	State string `json:"state,omitempty"`
	// Seg and Pkt address a segment / EEPROM slot.
	Seg int `json:"seg,omitempty"`
	Pkt int `json:"pkt,omitempty"`
	// Peer is the parent node for KindParent events.
	Peer int `json:"peer,omitempty"`
	// On is the new radio state for TypeRadio records.
	On bool `json:"on,omitempty"`
	// Write distinguishes EEPROM writes from reads; Bytes is the
	// payload size.
	Write bool `json:"write,omitempty"`
	Bytes int  `json:"bytes,omitempty"`
	// Ops is the GF(256) row-operation count for KindDecode events.
	Ops int `json:"ops,omitempty"`

	// Rule and Detail describe a TypeViolation record; Detail also
	// carries the human-readable form of a TypeFault event.
	Rule   string `json:"rule,omitempty"`
	Detail string `json:"detail,omitempty"`

	// Meta fields (TypeMeta only).
	Name     string `json:"name,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Packets  int    `json:"packets,omitempty"`
	Protocol string `json:"protocol,omitempty"`

	// Engine load-sample fields (TypeLoad only): one record per
	// (report period, executor). Win is the lockstep window count at
	// the end of the period, Shard the executor index, Tiles how many
	// tiles it held, Events/Delivered the deterministic load it
	// executed, WaitNs its wall-clock barrier wait (diagnostic only),
	// and Migrations the tiles moved at the closing barrier (always 0:
	// the engine's tile mapping is fixed; dropping the field would be a
	// SchemaVersion change).
	Win        int   `json:"win,omitempty"`
	Shard      int   `json:"shard,omitempty"`
	Tiles      int   `json:"tiles,omitempty"`
	Events     int64 `json:"events,omitempty"`
	Delivered  int64 `json:"delivered,omitempty"`
	WaitNs     int64 `json:"wait_ns,omitempty"`
	Migrations int   `json:"migrations,omitempty"`

	// Counters is the final counter snapshot (TypeSummary only). Keys
	// are the same metric names the Prometheus dump uses.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Encode renders the record as one NDJSON line, trailing newline
// included. Field order is fixed by the struct, so identical records
// always encode to identical bytes.
func (r Record) Encode() ([]byte, error) {
	if r.Type == "" {
		return nil, fmt.Errorf("telemetry: record has no type")
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("telemetry: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeLine parses one NDJSON line back into a Record. Unknown fields
// are rejected, so schema drift between writer and reader fails loudly
// instead of silently dropping data.
func DecodeLine(line []byte) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var r Record
	if err := dec.Decode(&r); err != nil {
		return Record{}, fmt.Errorf("telemetry: decode: %w", err)
	}
	if r.Type == "" {
		return Record{}, fmt.Errorf("telemetry: record has no type")
	}
	return r, nil
}
