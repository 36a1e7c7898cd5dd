package xnp

import (
	"math/rand"
	"testing"

	"mnp/internal/image"
	"mnp/internal/node/nodetest"
)

// TestFuzzNeverPanics hammers XNP nodes (receiver and base) with
// arbitrary packets and timer interleavings.
func TestFuzzNeverPanics(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := nodetest.New(3)
		rt.Attach(New(Config{}))
		rt.Fuzz(rng, 2500)
	}
	img, err := image.Random(1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		rt := nodetest.New(0)
		rt.Attach(New(Config{Base: true, Image: img}))
		rt.Fuzz(rng, 2500)
	}
}
