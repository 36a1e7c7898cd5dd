package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"mnp/internal/metrics"
	"mnp/internal/packet"
)

// Counters is a registry of named monotonic counters. Metric names
// follow the Prometheus text convention — a bare family name plus
// optional {label="value"} pairs baked into the key, e.g.
// "mnp_tx_total{class=\"data\"}" — so the same keys serve the NDJSON
// summary record and the Prometheus dump.
//
// The registry is safe for concurrent use: a reader may snapshot it
// while a run is still writing.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters builds an empty registry.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Add increments name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Set stores an absolute value for name.
func (c *Counters) Set(name string, v int64) {
	c.mu.Lock()
	c.m[name] = v
	c.mu.Unlock()
}

// Get returns the current value of name (0 if absent).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot copies the registry into a plain map.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// WritePrometheus dumps the registry in Prometheus text exposition
// format, families sorted by name, one # TYPE line per family.
func (c *Counters) WritePrometheus(w io.Writer) error {
	snap := c.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lastFamily := ""
	for _, k := range keys {
		family := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			family = k[:i]
		}
		if family != lastFamily {
			kind := "gauge"
			if strings.HasSuffix(family, "_total") {
				kind = "counter"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind); err != nil {
				return err
			}
			lastFamily = family
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", k, snap[k]); err != nil {
			return err
		}
	}
	return nil
}

// classLabels maps accounting classes to stable label values.
var classLabels = map[packet.Class]string{
	packet.ClassControl:       "control",
	packet.ClassAdvertisement: "adv",
	packet.ClassRequest:       "req",
	packet.ClassData:          "data",
}

// CountersFromSnapshot converts a metrics snapshot into the canonical
// counter set: tx/rx by class, collisions, EEPROM traffic, radio-on and
// sleep time, sender-competition outcomes, and per-segment completion.
func CountersFromSnapshot(s metrics.Snapshot) *Counters {
	c := NewCounters()
	c.Set("mnp_nodes", int64(s.Nodes))
	c.Set("mnp_nodes_completed", int64(s.Completed))
	c.Set("mnp_tx_frames_total", int64(s.Tx))
	c.Set("mnp_rx_frames_total", int64(s.Rx))
	c.Set("mnp_collisions_total", int64(s.Collisions))
	for class, label := range classLabels {
		c.Set(fmt.Sprintf("mnp_tx_frames_total{class=%q}", label), int64(s.TxByClass[class]))
		c.Set(fmt.Sprintf("mnp_rx_frames_total{class=%q}", label), int64(s.RxByClass[class]))
	}
	c.Set("mnp_eeprom_read_bytes_total", int64(s.EEPROMReadBytes))
	c.Set("mnp_eeprom_write_bytes_total", int64(s.EEPROMWriteBytes))
	c.Set("mnp_decode_row_ops_total", int64(s.DecodeOps))
	c.Set("mnp_sender_competitions_total", int64(s.SenderEvents))
	c.Set("mnp_concurrent_sender_overlaps_total", int64(s.ConcurrencyViolations))
	c.Set("mnp_radio_on_ms_total", s.RadioOnTotal.Milliseconds())
	c.Set("mnp_radio_off_ms_total", s.SleepTotal.Milliseconds())
	for seg, n := range s.SegmentCompletions {
		c.Set(fmt.Sprintf("mnp_segment_completed_nodes{seg=%q}", fmt.Sprint(seg)), int64(n))
	}
	return c
}
