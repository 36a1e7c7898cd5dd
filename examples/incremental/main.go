// Incremental: difference-based reprogramming over MNP. The paper
// notes that MNP is "complementary to difference-based approaches":
// when the fleet already runs version 1, the operator need only
// disseminate a patch. This example diffs v1 against v2, pushes the
// (much smaller) patch through a 10x10 network with MNP, has every
// mote apply it to its local v1, and compares against shipping the
// full v2 image.
//
//	go run ./examples/incremental
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"mnp"
	"mnp/internal/imgdiff"
	"mnp/internal/packet"
)

func main() {
	// Version 1 — what every mote currently runs (28 KB).
	rng := rand.New(rand.NewSource(12))
	v1 := make([]byte, 28*1024)
	rng.Read(v1)

	// Version 2 — a realistic maintenance release: a handful of small
	// code edits plus one new 300-byte routine appended.
	v2 := append([]byte(nil), v1...)
	for _, at := range []int{1000, 7000, 15000, 22000} {
		copy(v2[at:], []byte("bugfix: bounds check added"))
	}
	extra := make([]byte, 300)
	rng.Read(extra)
	v2 = append(v2, extra...)

	patch, err := imgdiff.Diff(v1, v2, imgdiff.DefaultBlockSize)
	if err != nil {
		log.Fatal(err)
	}
	st, err := imgdiff.Inspect(patch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v1: %.1f KB, v2: %.1f KB, patch: %.1f KB (%.1f%% of the full image)\n",
		float64(len(v1))/1024, float64(len(v2))/1024,
		float64(st.PatchSize)/1024, 100*st.Ratio())

	disseminate := func(name string, data []byte) *mnp.Result {
		res, err := mnp.Simulate(mnp.Setup{
			Name: name, Rows: 10, Cols: 10,
			ImageData: data,
			Seed:      4,
			Limit:     8 * time.Hour,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Completed {
			log.Fatalf("%s incomplete (%d/%d)", name, res.Network.CompletedCount(), len(res.Network.Nodes))
		}
		return res
	}

	fmt.Println("\nvariant      payload  completion  mean ART  data msgs")
	for _, mode := range []string{"full image", "patch only"} {
		data := v2
		if mode == "patch only" {
			data = patch
		}
		res := disseminate(mode, data)
		dataTx := 0
		for i := 0; i < res.Layout.N(); i++ {
			dataTx += res.Collector.TxByClass(packet.NodeID(i), packet.ClassData)
		}
		fmt.Printf("%-12s %6.1fKB %11s %9s %10d\n", mode,
			float64(len(data))/1024,
			res.CompletionTime.Round(time.Second),
			res.Collector.MeanActiveRadioTime(res.CompletionTime).Round(time.Second),
			dataTx)

		if mode == "patch only" {
			// Every mote applies the received patch to its local v1.
			for _, n := range res.Network.Nodes {
				received, err := res.Image.Reassemble(res.Image.Geometry(), func(seg, pkt int) []byte {
					return n.EEPROM().Read(seg, pkt)
				})
				if err != nil {
					log.Fatalf("mote %v: %v", n.ID(), err)
				}
				rebuilt, err := imgdiff.Apply(v1, received)
				if err != nil {
					log.Fatalf("mote %v: apply: %v", n.ID(), err)
				}
				if !bytes.Equal(rebuilt, v2) {
					log.Fatalf("mote %v reconstructed a wrong v2", n.ID())
				}
			}
			fmt.Println("verified: all 100 motes reconstructed v2 from v1 + patch")
		}
	}
}
