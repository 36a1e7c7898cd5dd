// Scale250k: the sparse-geometry scaling demonstration — a 500x500
// grid (250,000 motes) built and disseminating under the same channel
// model the paper-scale experiments use.
//
// The dense radio geometry this release replaced stored an n² distance
// matrix plus per-power audibility and BER tables: at 250k nodes that
// is 500 GB before the first frame flies. The sparse geometry stores
// points plus a uniform grid hash (~20 B/node) and materializes link
// rows lazily through a bounded LRU cache, so the same deployment
// builds in milliseconds and runs in ordinary memory.
//
// The program prints the geometry build time and resident bytes, the
// fleet build time, then drives a short dissemination window from the
// corner base station and reports how far the wavefront got, the link
// cache hit rate, and the process heap.
//
//	go run ./examples/scale250k
//	go run ./examples/scale250k -rows 100 -cols 100 -window 10m
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"mnp/internal/experiment"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/topology"
)

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func main() {
	rows := flag.Int("rows", 500, "grid rows")
	cols := flag.Int("cols", 500, "grid cols")
	window := flag.Duration("window", 5*time.Minute, "simulated dissemination window")
	image := flag.Int("image", 48, "program size in 22-byte packets")
	flag.Parse()
	n := *rows * *cols

	// Stage 1: the geometry alone — the part that was O(n²).
	start := time.Now()
	layout, err := topology.Grid(*rows, *cols, 10)
	if err != nil {
		log.Fatal(err)
	}
	geo, err := radio.NewGeometry(layout, radio.DefaultParams(), 42)
	if err != nil {
		log.Fatal(err)
	}
	dense := uint64(n) * uint64(n) * 8
	fmt.Printf("geometry: %d nodes in %v, %.1f MB resident (dense matrix alone: %.0f GB)\n",
		n, time.Since(start).Round(time.Millisecond), float64(geo.Footprint())/(1<<20),
		float64(dense)/(1<<30))

	// Stage 2: the full fleet — protocol state, EEPROM, metrics.
	start = time.Now()
	res, err := experiment.Build(experiment.Setup{
		Name: "scale250k", Rows: *rows, Cols: *cols,
		ImagePackets: *image, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet:    %d motes built in %v, heap %.0f MB\n",
		n, time.Since(start).Round(time.Millisecond), heapMB())

	// Stage 3: a short dissemination window from the corner base.
	start = time.Now()
	if err := res.Network.Start(); err != nil {
		log.Fatal(err)
	}
	res.Kernel.Run(*window)
	wall := time.Since(start)

	reached, frames := 0, 0
	for id := 0; id < n; id++ {
		if res.Collector.RxCount(packet.NodeID(id)) > 0 {
			reached++
		}
		frames += res.Collector.TxCount(packet.NodeID(id))
	}
	hits, misses, _, entries := res.Medium.CacheStats()
	fmt.Printf("window:   %v simulated in %v wall\n", *window, wall.Round(time.Millisecond))
	fmt.Printf("          %d frames sent, wavefront reached %d motes\n", frames, reached)
	fmt.Printf("          link cache: %d rows resident, %.1f%% hit rate (%d hits, %d misses)\n",
		entries, 100*res.Medium.CacheHitRate(), hits, misses)
	fmt.Printf("          heap after run: %.0f MB\n", heapMB())
	runtime.KeepAlive(res)
}
