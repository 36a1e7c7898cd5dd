package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mnp/internal/packet"
)

// The paper's deadlock-freedom claim ("this cannot cause deadlock, as
// the node with highest ReqCtr — with appropriate tie breaker on node
// ID — will succeed") requires the concession relation to be a strict
// total order over competitors. These properties pin that down.

type competitor struct {
	ctr int
	id  packet.NodeID
}

func outranks(a, b competitor) bool {
	return Outranks(a.ctr, a.id, b.ctr, b.id)
}

func randomCompetitors(rng *rand.Rand, n int) []competitor {
	// IDs are distinct (they are addresses); counters may collide.
	ids := rng.Perm(1 << 12)
	out := make([]competitor, n)
	for i := range out {
		out[i] = competitor{ctr: rng.Intn(6), id: packet.NodeID(ids[i])}
	}
	return out
}

// Property: irreflexive and antisymmetric — no mutual concessions, so
// two competitors can never both go to sleep because of each other.
func TestQuickOutranksAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomCompetitors(rng, 2)
		a, b := cs[0], cs[1]
		if outranks(a, a) || outranks(b, b) {
			return false
		}
		return outranks(a, b) != outranks(b, a) // exactly one direction
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: transitive — concession chains cannot cycle.
func TestQuickOutranksTransitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomCompetitors(rng, 3)
		a, b, c := cs[0], cs[1], cs[2]
		if outranks(a, b) && outranks(b, c) && !outranks(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: more requesters win whatever the IDs — the order serves the
// source most neighbors asked for. The three properties above also
// hold for an order by node ID alone; this one does not.
func TestQuickMoreRequestersOutrank(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomCompetitors(rng, 2)
		a, b := cs[0], cs[1]
		if a.ctr == b.ctr {
			a.ctr++
		}
		if a.ctr < b.ctr {
			a, b = b, a
		}
		return outranks(a, b) && !outranks(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every nonempty set of competitors has exactly one member
// that concedes to nobody — the unique surviving sender.
func TestQuickUniqueWinner(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%12 + 2
		cs := randomCompetitors(rng, n)
		winners := 0
		for i, a := range cs {
			conceded := false
			for j, b := range cs {
				if i != j && outranks(b, a) {
					conceded = true
					break
				}
			}
			if !conceded {
				winners++
			}
		}
		return winners == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The winner is the lexicographic maximum of (ReqCtr, ID) — the
// greediest choice the paper intends.
func TestWinnerIsGreedyMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		cs := randomCompetitors(rng, 8)
		best := cs[0]
		for _, c := range cs[1:] {
			if outranks(c, best) {
				best = c
			}
		}
		for _, c := range cs {
			if c.ctr > best.ctr || (c.ctr == best.ctr && c.id > best.id) {
				t.Fatalf("winner %+v is not the (ctr,id) maximum; %+v is larger", best, c)
			}
		}
	}
}
