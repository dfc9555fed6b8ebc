package digruber

import "fmt"

// DisseminationStrategy selects what decision points exchange (paper
// Section 3.5 lists the three approaches) and the shape of the round
// that carries it. Every strategy runs the same round (gossip.go) over
// per-origin logs and version vectors; the strategy picks its targets
// and message shape and nothing else.
type DisseminationStrategy int

// Dissemination strategies.
const (
	// UsageOnly exchanges only utilization information (dispatches);
	// USLAs are static local knowledge. This is the strategy the paper's
	// experiments use — "the simplified implementation by avoiding USLA
	// tracking". Its round is the paper's full mesh: every peer is sent
	// this point's own unacknowledged records, with no relay and no pull.
	UsageOnly DisseminationStrategy = iota
	// UsageAndUSLAs is UsageOnly's mesh round with the sender's USLA
	// entries attached, so runtime policy changes propagate between
	// decision points.
	UsageAndUSLAs
	// NoExchange disables synchronization: each decision point relies
	// only on its own observations. Its round has no targets; it still
	// compacts the own log (by expiry) and checkpoints a durable point.
	NoExchange
	// Gossip replaces the full mesh with peer-sampling push-pull
	// dissemination (internal/gossip): each round contacts a seeded
	// sample of fanout-k peers, exchanges version-vector digests, and
	// relays third-party records transitively. Per-point traffic tracks
	// the fanout instead of the fleet size, which is what lets the mesh
	// grow past the paper's 10 decision points.
	Gossip
)

// String names the strategy.
func (s DisseminationStrategy) String() string {
	switch s {
	case UsageOnly:
		return "usage-only"
	case UsageAndUSLAs:
		return "usage-and-uslas"
	case NoExchange:
		return "no-exchange"
	case Gossip:
		return "gossip"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}
