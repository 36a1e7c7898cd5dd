package telemetry

import (
	"strings"
	"testing"
	"time"

	"mnp/internal/metrics"
	"mnp/internal/packet"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("a_total", 2)
	c.Add("a_total", 3)
	c.Set("b", 7)
	c.Set("b", 4)
	if got := c.Get("a_total"); got != 5 {
		t.Errorf("Get(a_total) = %d, want 5", got)
	}
	if got := c.Get("b"); got != 4 {
		t.Errorf("Get(b) = %d, want 4", got)
	}
	if got := c.Get("missing"); got != 0 {
		t.Errorf("Get(missing) = %d, want 0", got)
	}
	snap := c.Snapshot()
	if len(snap) != 2 || snap["a_total"] != 5 || snap["b"] != 4 {
		t.Errorf("Snapshot = %v", snap)
	}
	// The snapshot is a copy: mutating it must not touch the registry.
	snap["a_total"] = 99
	if got := c.Get("a_total"); got != 5 {
		t.Errorf("registry changed through snapshot: %d", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCounters()
	c.Set(`mnp_tx_frames_total{class="data"}`, 10)
	c.Set(`mnp_tx_frames_total{class="adv"}`, 3)
	c.Set("mnp_tx_frames_total", 13)
	c.Set("mnp_nodes", 9)
	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE mnp_nodes gauge\n" +
		"mnp_nodes 9\n" +
		"# TYPE mnp_tx_frames_total counter\n" +
		"mnp_tx_frames_total 13\n" +
		`mnp_tx_frames_total{class="adv"} 3` + "\n" +
		`mnp_tx_frames_total{class="data"} 10` + "\n"
	if sb.String() != want {
		t.Errorf("dump:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestCountersFromSnapshot(t *testing.T) {
	s := metrics.Snapshot{
		Nodes: 15, Completed: 14,
		Tx: 100, Rx: 90, Collisions: 5,
		TxByClass:       map[packet.Class]int{packet.ClassData: 60, packet.ClassAdvertisement: 40},
		RxByClass:       map[packet.Class]int{packet.ClassData: 55},
		EEPROMReadBytes: 2200, EEPROMWriteBytes: 1100,
		SenderEvents: 12, ConcurrencyViolations: 1,
		RadioOnTotal: 90 * time.Second, SleepTotal: 10 * time.Second,
		SegmentCompletions: map[int]int{0: 15, 1: 14},
	}
	c := CountersFromSnapshot(s)
	checks := map[string]int64{
		"mnp_nodes":                            15,
		"mnp_nodes_completed":                  14,
		"mnp_tx_frames_total":                  100,
		"mnp_rx_frames_total":                  90,
		"mnp_collisions_total":                 5,
		`mnp_tx_frames_total{class="data"}`:    60,
		`mnp_tx_frames_total{class="adv"}`:     40,
		`mnp_tx_frames_total{class="req"}`:     0,
		`mnp_rx_frames_total{class="data"}`:    55,
		"mnp_eeprom_read_bytes_total":          2200,
		"mnp_eeprom_write_bytes_total":         1100,
		"mnp_sender_competitions_total":        12,
		"mnp_concurrent_sender_overlaps_total": 1,
		"mnp_radio_on_ms_total":                90000,
		"mnp_radio_off_ms_total":               10000,
		`mnp_segment_completed_nodes{seg="0"}`: 15,
		`mnp_segment_completed_nodes{seg="1"}`: 14,
	}
	for name, want := range checks {
		if got := c.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
