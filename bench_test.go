package mnp

// The regeneration harness: one benchmark per table and figure of the
// paper's evaluation, plus the section-5 Deluge comparison and the
// ablations from DESIGN.md. Each benchmark runs the corresponding
// experiment spec end to end and reports paper-shaped metrics as
// custom benchmark outputs. Regenerate everything with
//
//	go test -bench=. -benchmem
//
// and the per-figure reports with cmd/mnpexp.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/experiment"
	"mnp/internal/metrics"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

// benchSpec runs one experiment spec per benchmark iteration.
func benchSpec(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := spec.Run(42 + int64(i))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && !strings.Contains(rep.Text, "\n") {
			b.Fatalf("%s produced an empty report", id)
		}
		b.SetBytes(int64(len(rep.Text)))
	}
}

// BenchmarkTable1EnergyCosts regenerates Table 1 (per-operation energy
// costs of Mica motes).
func BenchmarkTable1EnergyCosts(b *testing.B) { benchSpec(b, "T1") }

// BenchmarkFig5Indoor regenerates Figure 5: the indoor 3x5 testbed at
// power levels 4 and 3 — parent maps, sender order, completion time.
func BenchmarkFig5Indoor(b *testing.B) { benchSpec(b, "F5") }

// BenchmarkFig6Outdoor5x5 regenerates Figure 6: the outdoor 5x5 grid
// at full and reduced power.
func BenchmarkFig6Outdoor5x5(b *testing.B) { benchSpec(b, "F6") }

// BenchmarkFig7Outdoor2x10 regenerates Figure 7: the outdoor 2x10
// grid, the paper's long-multihop deployment.
func BenchmarkFig7Outdoor2x10(b *testing.B) { benchSpec(b, "F7") }

// BenchmarkFig8ActiveRadioTime regenerates Figure 8: per-node active
// radio time in a 20x20 network disseminating 5 segments.
func BenchmarkFig8ActiveRadioTime(b *testing.B) { benchSpec(b, "F8") }

// BenchmarkFig9ARTNoInitialIdle regenerates Figure 9: the same
// distribution with the initial idle-listening period removed.
func BenchmarkFig9ARTNoInitialIdle(b *testing.B) { benchSpec(b, "F9") }

// BenchmarkFig10ProgramSizeSweep regenerates Figure 10: completion
// time and active radio time across program sizes of 1..10 segments.
func BenchmarkFig10ProgramSizeSweep(b *testing.B) { benchSpec(b, "F10") }

// BenchmarkFig11TxRxDistribution regenerates Figure 11: transmission
// and reception distributions across the 20x20 grid.
func BenchmarkFig11TxRxDistribution(b *testing.B) { benchSpec(b, "F11") }

// BenchmarkFig12MessageTimeline regenerates Figure 12: advertisements,
// requests and data messages per one-minute window.
func BenchmarkFig12MessageTimeline(b *testing.B) { benchSpec(b, "F12") }

// BenchmarkFig13PropagationProgress regenerates Figure 13: the
// propagation wavefront of a single segment, including the
// diagonal-vs-edge uniformity check.
func BenchmarkFig13PropagationProgress(b *testing.B) { benchSpec(b, "F13") }

// BenchmarkDelugeComparison regenerates the section-5 comparison:
// MNP vs Deluge on the same 20x20 workload.
func BenchmarkDelugeComparison(b *testing.B) { benchSpec(b, "EDEL") }

// BenchmarkAblationNoSenderSelection measures dissemination with the
// ReqCtr competition disabled (design ablation A1).
func BenchmarkAblationNoSenderSelection(b *testing.B) { benchSpec(b, "A1") }

// BenchmarkAblationNoSleep measures dissemination with radio sleeping
// disabled (design ablation A2).
func BenchmarkAblationNoSleep(b *testing.B) { benchSpec(b, "A2") }

// BenchmarkAblationQueryUpdate measures the effect of the optional
// query/update repair phase on a lossy network (design ablation A3).
func BenchmarkAblationQueryUpdate(b *testing.B) { benchSpec(b, "A3") }

// BenchmarkBatteryAware measures the section-6 battery-aware
// advertisement-power extension (design ablation A4).
func BenchmarkBatteryAware(b *testing.B) { benchSpec(b, "A4") }

// BenchmarkIdleDutyCycle measures the paper's S-MAC-style suggestion
// for eliminating initial idle listening (design extension A5).
func BenchmarkIdleDutyCycle(b *testing.B) { benchSpec(b, "A5") }

// BenchmarkScaleCentralBase validates the section-6 scaling claim: a
// 4x larger network with the base station at its center completes in
// about the same time (design extension A6).
func BenchmarkScaleCentralBase(b *testing.B) { benchSpec(b, "A6") }

// --- Substrate micro-benchmarks ---
//
// The figure benchmarks above measure whole experiments; the two below
// isolate the simulation substrate's hot paths: Medium.Transmit (the
// per-frame channel work) and Kernel scheduling (the per-event queue
// work). They feed BENCH_sim.json via `make bench`.

// BenchmarkMediumTransmit measures one batch of concurrent frame
// transmissions plus their deliveries on a 400-node (20x20) grid, for
// varying numbers of simultaneously active transmitters.
func BenchmarkMediumTransmit(b *testing.B) {
	for _, active := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("active=%d", active), func(b *testing.B) {
			k := sim.New(1)
			layout, err := topology.Grid(20, 20, 10)
			if err != nil {
				b.Fatal(err)
			}
			m, err := radio.NewMedium(k, layout, radio.DefaultParams(), 2)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < layout.N(); i++ {
				id := packet.NodeID(i)
				if err := m.Register(id, func(packet.Packet, radio.RxMeta) {}); err != nil {
					b.Fatal(err)
				}
				m.SetRadio(id, true)
			}
			// Sources spread across the grid (37 is coprime to 400).
			pkts := make([]*packet.Advertise, active)
			srcs := make([]packet.NodeID, active)
			for j := range srcs {
				srcs[j] = packet.NodeID(j * 37 % layout.N())
				pkts[j] = &packet.Advertise{Src: srcs[j], ProgramID: 1, ProgramSegments: 5, SegID: 1, SegNominal: 128, TotalPackets: 640}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, src := range srcs {
					if _, err := m.Transmit(src, pkts[j], radio.PowerSim); err != nil {
						b.Fatal(err)
					}
				}
				k.Run(time.Hour) // drain the finish events
			}
		})
	}
}

// BenchmarkGeometryBuild measures sparse radio-geometry construction —
// the simulator's startup cost — across three decades of deployment
// size up to the 250k-node scaling target. The curve should be
// near-linear in n (the spatial index is two O(n) passes), and the
// geo-B metric reports the geometry's resident bytes so benchjson can
// record the memory series alongside the timings: roughly 24 B/node
// versus the 8n² B the dense distance matrix would need (500 GB at
// 250k nodes).
func BenchmarkGeometryBuild(b *testing.B) {
	for _, dims := range []struct{ rows, cols int }{
		{25, 40},   // 1000
		{100, 100}, // 10k
		{250, 400}, // 100k
		{500, 500}, // 250k
	} {
		n := dims.rows * dims.cols
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			layout, err := topology.Grid(dims.rows, dims.cols, 10)
			if err != nil {
				b.Fatal(err)
			}
			params := radio.DefaultParams()
			b.ReportAllocs()
			b.ResetTimer()
			var fp uint64
			for i := 0; i < b.N; i++ {
				geo, err := radio.NewGeometry(layout, params, 2)
				if err != nil {
					b.Fatal(err)
				}
				fp = geo.Footprint()
			}
			b.ReportMetric(float64(fp), "geo-B")
		})
	}
}

// BenchmarkFleetBuild measures what a mote costs before it does
// anything: experiment.Build of a 10 000-mote (100x100) MNP fleet,
// reported per mote as wall time, allocations and live heap (HeapAlloc
// across the build, GC on both sides). It is the ledger series for
// fleet set-up — the cost the 100k benchmark workload and the 250k
// scale example pay N times. Feeds BENCH_sim.json via `make bench`.
func BenchmarkFleetBuild(b *testing.B) {
	const motes = 100 * 100
	heap := func() (alloc, mallocs uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.Mallocs
	}
	b.ReportAllocs()
	var live, allocs float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h0, m0 := heap()
		b.StartTimer()
		res, err := experiment.Build(experiment.Setup{
			Name: "fleet-build", Rows: 100, Cols: 100, ImagePackets: 48, Seed: 42,
		})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		h1, m1 := heap()
		runtime.KeepAlive(res)
		live, allocs = float64(h1)-float64(h0), float64(m1-m0)
		b.StartTimer()
	}
	b.ReportMetric(live/motes, "B/mote")
	b.ReportMetric(allocs/motes, "allocs/mote")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/motes, "ns/mote")
}

// BenchmarkStoreFill measures what one segment costs a mote's flash
// model: 128 packets of 22 B written in order to a fresh store, carved
// at the segment's packet count as a mote's writes are, then read back.
// B/op and allocs/op are the ledger: every mote of every run pays them
// once per segment. Feeds BENCH_sim.json via `make bench`.
func BenchmarkStoreFill(b *testing.B) {
	const packets, size = 128, 22
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ReportAllocs()
	read := 0
	for i := 0; i < b.N; i++ {
		st, err := eeprom.New(eeprom.DefaultCapacity)
		if err != nil {
			b.Fatal(err)
		}
		for pkt := 0; pkt < packets; pkt++ {
			if err := st.WriteSized(1, pkt, packets, payload); err != nil {
				b.Fatal(err)
			}
		}
		for pkt := 0; pkt < packets; pkt++ {
			read += len(st.Read(1, pkt))
		}
	}
	if read != b.N*packets*size {
		b.Fatalf("read back %d bytes, want %d", read, b.N*packets*size)
	}
}

// BenchmarkEngineGrid measures the sharded lockstep engine against the
// sequential kernel: one full 60x60-grid (3600-node) dissemination per
// iteration at 1, 2, 4, and 8 spatial shards. The shards=1 case is the
// classic single-kernel path; higher counts exercise partitioning,
// per-window advancement, and barrier ghost exchange. The window phase
// parallelizes across cores (Workers=0 auto-selects); on a single-core
// host the series instead bounds the lockstep overhead — sharded runs
// should stay within a few percent of sequential despite the ~300k
// barrier exchanges a run this size performs. Feeds BENCH_sim.json via
// `make bench`.
func BenchmarkEngineGrid(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiment.Run(experiment.Setup{
					Name: "engine-grid", Rows: 60, Cols: 60, ImagePackets: 64,
					Seed: 42 + int64(i), Shards: shards,
					Limit: 12 * time.Hour,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatalf("shards=%d seed=%d: dissemination incomplete", shards, 42+int64(i))
				}
			}
		})
	}
	// Tiled series: the same 3600-node dissemination on explicit 2D
	// tile grids, all at four executors. Each run reports the mean
	// per-window load imbalance (max/mean across executors, 1.0 is
	// perfect) alongside the timing, so BENCH_sim.json records the
	// balance of each grid. `make bench-smoke` runs just this series,
	// one iteration per config.
	for _, tc := range []struct {
		name       string
		rows, cols int
		mobile     bool
	}{
		{"tiles=2x2", 2, 2, false},
		{"tiles=4x4", 4, 4, false},
		// The mobile cell prices barrier-quantized position updates: a
		// random-waypoint walk moves every node through the run, so each
		// window pays index maintenance plus link-row invalidation on top
		// of the static baseline above it.
		{"tiles=4x4-mobile", 4, 4, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var imbalance float64
			for i := 0; i < b.N; i++ {
				setup := experiment.Setup{
					Name: "engine-grid-tiled", Rows: 60, Cols: 60, ImagePackets: 64,
					Seed: 42 + int64(i), Shards: 4,
					TileRows: tc.rows, TileCols: tc.cols,
					Limit: 12 * time.Hour,
				}
				if tc.mobile {
					setup.Mobility = func(l *topology.Layout, seed int64) (topology.Mobility, error) {
						return topology.NewWaypoint(l, topology.WaypointConfig{
							SpeedMin: 1, SpeedMax: 3, Pause: 10 * time.Second, Seed: seed,
						})
					}
					setup.MobilityEvery = 5 * time.Second
				}
				res, err := experiment.Run(setup)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatalf("%s seed=%d: dissemination incomplete", tc.name, 42+int64(i))
				}
				imbalance = metrics.SummarizeLoads(res.LoadMatrix()).Mean
			}
			b.ReportMetric(imbalance, "imbalance")
		})
	}
}

// BenchmarkKernelSchedule measures the kernel's schedule/fire,
// schedule/cancel and re-arm cycles — the per-event cost every
// simulated timer and frame pays. rearm pushes one pending timer out
// again (a download watchdog on each data packet) against a queue of
// 1 024 other pending events. chain is the MAC retry shape: a callback
// that schedules its own successor against the same 1 024, so the
// firing event's slot is refilled from the root. chain-gc is chain
// while another goroutine allocates, so the collector's mark phase —
// and with it the write barrier on every pointer the kernel stores — is
// on for much of the run, as it is in a sweep of short cells; its ns/op
// is a demonstration of that tax, not a gate.
func BenchmarkKernelSchedule(b *testing.B) {
	b.Run("fire", func(b *testing.B) {
		k := sim.New(1)
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.MustSchedule(time.Microsecond, fn)
			k.Step()
		}
	})
	b.Run("cancel", func(b *testing.B) {
		k := sim.New(1)
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := k.MustSchedule(time.Microsecond, fn)
			t.Cancel()
			k.Step() // reaps the cancelled event
		}
	})
	b.Run("rearm", func(b *testing.B) {
		k := sim.New(1)
		fn := func() {}
		for i := 0; i < 1024; i++ {
			k.MustSchedule(time.Duration(i+1)*time.Second, fn)
		}
		t := k.MustSchedule(3*time.Second, fn)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t = k.Reset(t, 3*time.Second, fn)
		}
	})
	chain := func(b *testing.B) {
		k := sim.New(1)
		for i := 0; i < 1024; i++ {
			k.MustSchedule(time.Duration(i+1)*time.Hour, func() {})
		}
		var retry func()
		retry = func() { k.MustSchedule(time.Microsecond, retry) }
		retry()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step()
		}
	}
	b.Run("chain", chain)
	b.Run("chain-gc", func(b *testing.B) {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			// A few MB live, like a campaign cell, and garbage on top.
			live := make([][]byte, 4096)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					live[i%len(live)] = make([]byte, 1024)
				}
			}
		}()
		chain(b)
		close(stop)
		<-done
	})
}
