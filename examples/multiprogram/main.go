// Multiprogram: the paper's §6 outlook realized — "rather than sending
// the data to the entire network, we can send different types of data
// to several disjoint or non-disjoint subsets of the network."
//
// Two programs disseminate concurrently through one 6x6 deployment:
// a firmware image (program 1) for every mote, seeded at the NW corner,
// and a calibration table (program 2) only for the even-numbered motes,
// seeded at the SE corner. Each mote runs one MNP instance per
// subscription behind a demultiplexer that shares its radio and EEPROM.
//
//	go run ./examples/multiprogram
package main

import (
	"fmt"
	"log"
	"time"

	"mnp/internal/core"
	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/topology"
)

func main() {
	firmware, err := image.Random(1, 2, 1) // 5.6 KB, all motes
	if err != nil {
		log.Fatal(err)
	}
	calib, err := image.Random(2, 1, 2) // 2.8 KB, even motes only
	if err != nil {
		log.Fatal(err)
	}
	layout, err := topology.Grid(6, 6, 10)
	if err != nil {
		log.Fatal(err)
	}
	kernel := sim.New(3)
	medium, err := radio.NewMedium(kernel, layout, radio.DefaultParams(), 4)
	if err != nil {
		log.Fatal(err)
	}
	calibBase := packet.NodeID(layout.N() - 2) // an even node at the far corner
	wantsCalib := func(id packet.NodeID) bool { return id%2 == 0 }

	nw, err := node.NewNetwork(layout, func(id packet.NodeID) (node.Protocol, node.Config) {
		ncfg := node.Config{TxPower: radio.PowerSim}
		var fw core.Config
		if id == 0 {
			fw.Base = true
			fw.Image = firmware
		}
		if !wantsCalib(id) {
			d, err := node.NewDemux(node.ProgramClassifier(1), core.New(fw))
			if err != nil {
				log.Fatal(err)
			}
			return d, ncfg
		}
		var cal core.Config
		if id == calibBase {
			cal.Base = true
			cal.Image = calib
		}
		d, err := node.NewDemux(node.ProgramClassifier(1, 2), core.New(fw), core.New(cal))
		if err != nil {
			log.Fatal(err)
		}
		return d, ncfg
	}, func(packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) { return kernel, medium, nil })
	if err != nil {
		log.Fatal(err)
	}
	if err := nw.Start(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("disseminating firmware (%.1f KB) to all %d motes and calibration (%.1f KB) to the %d even motes…\n",
		float64(firmware.Size())/1024, layout.N(), float64(calib.Size())/1024, layout.N()/2)
	if !kernel.RunUntil(nw.AllCompleted, 8*time.Hour) {
		log.Fatalf("incomplete: %d/%d motes", nw.CompletedCount(), layout.N())
	}
	fmt.Printf("every mote finished its subscriptions in %s (simulated)\n",
		nw.CompletionTime().Round(time.Second))

	for _, n := range nw.Nodes {
		fwData, err := firmware.Reassemble(firmware.Geometry(), func(seg, pkt int) []byte {
			return n.EEPROM().Read(seg, pkt) // firmware is subprotocol 0
		})
		if err != nil || !firmware.Verify(fwData) {
			log.Fatalf("mote %v firmware corrupt: %v", n.ID(), err)
		}
		if wantsCalib(n.ID()) {
			calData, err := calib.Reassemble(calib.Geometry(), func(seg, pkt int) []byte {
				return n.EEPROM().Read(node.SegSpace+seg, pkt) // subprotocol 1
			})
			if err != nil || !calib.Verify(calData) {
				log.Fatalf("mote %v calibration corrupt: %v", n.ID(), err)
			}
		}
	}
	fmt.Println("verified: firmware on all motes, calibration on exactly the subscribed subset")
}
