package gossip

// PeerTableLen reports how many neighbours the density table holds.
func (g *Gossip) PeerTableLen() int { return g.peers.Len() }
