// Upgrade: the full reprogramming lifecycle. Version 1 is disseminated
// at deployment; months later the operator plugs the serial cable into
// the base station, loads version 2, and the network upgrades itself
// over the air — every mote abandons v1 the moment it hears a newer
// program advertised, erases its staging area, and re-acquires.
//
//	go run ./examples/upgrade
package main

import (
	"fmt"
	"log"
	"time"

	"mnp"
	"mnp/internal/core"
	"mnp/internal/image"
)

func main() {
	res, err := mnp.Simulate(mnp.Setup{
		Name: "deploy-v1", Rows: 6, Cols: 6,
		ImagePackets: 256, // v1: 5.6 KB
		Seed:         15,
		Limit:        4 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Completed {
		log.Fatal("v1 dissemination incomplete")
	}
	fmt.Printf("v1 (%.1f KB) deployed to all %d motes in %s\n",
		float64(res.Image.Size())/1024, len(res.Network.Nodes),
		res.CompletionTime.Round(time.Second))

	// The operator loads v2 at the base station over serial.
	v2, err := image.Random(2, 3, 99) // v2: 8.4 KB, program ID 2
	if err != nil {
		log.Fatal(err)
	}
	base, ok := res.Network.Node(0).Protocol().(*core.MNP)
	if !ok {
		log.Fatal("base protocol is not MNP")
	}
	upgradeStart := res.Kernel.Now()
	if err := base.LoadProgram(v2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nv2 (%.1f KB, 3 segments) loaded at the base; upgrading over the air…\n",
		float64(v2.Size())/1024)

	allOnV2 := func() bool {
		for _, n := range res.Network.Nodes {
			p := n.Protocol().(*core.MNP)
			if p.RvdSeg() != v2.Segments() {
				return false
			}
		}
		return true
	}
	if !res.Kernel.RunUntil(allOnV2, 8*time.Hour) {
		log.Fatal("upgrade incomplete")
	}
	fmt.Printf("all motes upgraded to v2 in %s\n",
		(res.Kernel.Now() - upgradeStart).Round(time.Second))

	for _, n := range res.Network.Nodes {
		data, err := v2.Reassemble(v2.Geometry(), func(seg, pkt int) []byte {
			return n.EEPROM().Read(seg, pkt)
		})
		if err != nil || !v2.Verify(data) {
			log.Fatalf("mote %v holds a corrupt v2: %v", n.ID(), err)
		}
	}
	fmt.Println("verified: every mote staged a byte-identical v2 image")
}
