package mnp

// Layer micro-benchmarks for the simulation substrate. Each isolates
// one hot path whose end-to-end counterpart bench's traced per-layer
// pass records (`go run ./bench -trace 1`):
//
//	BenchmarkMediumTransmit  radio.ns_per_tx
//	BenchmarkKernelSchedule  sim.ns_per_event
//	BenchmarkGeometryBuild   topology.index_build_s
//	BenchmarkFleetBuild      experiment.bytes_per_node, build_allocs_per_node
//	BenchmarkStoreFill       eeprom.ns_per_op
//
// The paper's tables and figures are produced by cmd/mnpexp and pinned
// by TestAllSpecsProduceReports; simulator speed is judged by
// `go run ./bench`. Run these with, for example,
//
//	go test -run '^$' -bench 'MediumTransmit|KernelSchedule' -benchmem .

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mnp/internal/eeprom"
	"mnp/internal/experiment"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

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
// geo-B metric reports the geometry's resident bytes beside the
// timings: roughly 24 B/node versus the 8n² B the dense distance matrix
// would need (500 GB at 250k nodes).
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
// across the build, GC on both sides). It isolates fleet set-up — the
// cost the 100k benchmark workload and the 250k scale example pay N
// times.
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
// B/op and allocs/op are the point: every mote of every run pays them
// once per segment.
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
