// Lowpower: the paper's two energy extensions working together.
//
// Section 6 proposes advertising at reduced power when a node's battery
// is low, so drained nodes lose the sender election and forwarding duty
// shifts to healthy nodes. Section 4.2 suggests an S-MAC-style wakeup
// schedule so nodes sleep through the initial idle-listening period
// before the propagation wave arrives. This example runs a 8x8 network
// where a quarter of the nodes start at 10% battery, with both features
// enabled, and reports where the energy went.
//
//	go run ./examples/lowpower
package main

import (
	"fmt"
	"log"
	"time"

	"mnp"
	"mnp/internal/core"
	"mnp/internal/packet"
)

func main() {
	lowBattery := func(id packet.NodeID) bool { return id != 0 && id%4 == 0 }

	run := func(extensions bool) *mnp.Result {
		res, err := mnp.Simulate(mnp.Setup{
			Name:         fmt.Sprintf("lowpower ext=%v", extensions),
			Rows:         8,
			Cols:         8,
			Spacing:      12,
			ImagePackets: 256, // 2 segments
			Seed:         9,
			Limit:        8 * time.Hour,
			Battery: func(id packet.NodeID) float64 {
				if lowBattery(id) {
					return 0.10
				}
				return 1.0
			},
			Variant: core.Variant{BatteryAware: extensions, IdleDutyCycle: extensions},
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Completed {
			log.Fatalf("dissemination incomplete (%d/%d)",
				res.Network.CompletedCount(), len(res.Network.Nodes))
		}
		if err := res.VerifyImages(); err != nil {
			log.Fatalf("verification failed: %v", err)
		}
		return res
	}

	fmt.Println("variant        completion  mean ART  drained-node data tx  drained-node charge (nAh)")
	for _, extensions := range []bool{false, true} {
		res := run(extensions)
		ct := res.CompletionTime
		lowTx, lowCharge, lowN := 0, 0.0, 0
		for i := 0; i < res.Layout.N(); i++ {
			id := packet.NodeID(i)
			if !lowBattery(id) {
				continue
			}
			lowN++
			lowTx += res.Collector.TxByClass(id, packet.ClassData)
			lowCharge += res.Collector.Ledger(id, ct).Total()
		}
		name := "baseline MNP"
		if extensions {
			name = "with extensions"
		}
		fmt.Printf("%-15s %9s %9s %21d %25.0f\n",
			name,
			ct.Round(time.Second),
			res.Collector.MeanActiveRadioTime(ct).Round(time.Second),
			lowTx, lowCharge/float64(lowN))
	}
	fmt.Println("\n(the extensions shift forwarding away from drained nodes and cut their")
	fmt.Println(" pre-contact idle listening, extending the network's weakest batteries)")
}
