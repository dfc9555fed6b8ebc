package digruber

import (
	"fmt"
	"time"
)

// Lifecycle: a decision point is serving from Start until Stop. Drain is
// the graceful path between them — the paper's Section 5 reconfiguration
// needs retiring brokers to leave the fleet without dropping the work
// they hold, which a bare Stop (or a Crash) cannot promise.
//
//	serving ──Drain──▶ draining ──flush verified──▶ stopped
//	   ▲                  │
//	   └──── abort ◀──────┘ (settle/flush deadline exceeded)
//
// While draining, the point refuses new scheduling work (Query/Schedule
// answer ErrDraining so clients fail over), but keeps accepting Reports
// (the tail of interactions already in flight) and all mesh/monitoring
// traffic (Gossip, Status, Snapshot) — peers still need its records
// and monitors still need to see it. Crash skips all of this: it models
// the process dying, state and obligations included.

// isDraining reports whether the decision point is in its Draining
// lifecycle state.
func (dp *DecisionPoint) isDraining() bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.draining
}

// LifecycleState names the decision point's current lifecycle state:
// StateServing, StateDraining or StateStopped.
func (dp *DecisionPoint) LifecycleState() string {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	switch {
	case !dp.started:
		return StateStopped
	case dp.draining:
		return StateDraining
	default:
		return StateServing
	}
}

// drainPollFloor/Ceil bound the settle/flush polling period derived from
// the drain deadline.
const (
	drainPollFloor = 10 * time.Millisecond
	drainPollCeil  = time.Second
)

// drainPoll picks the (virtual-time) polling period for a drain with the
// given deadline budget: 1% of the budget, clamped.
func drainPoll(timeout time.Duration) time.Duration {
	p := timeout / 100
	if p < drainPollFloor {
		p = drainPollFloor
	}
	if p > drainPollCeil {
		p = drainPollCeil
	}
	return p
}

// Drain retires the decision point gracefully within the given
// (virtual-time) budget:
//
//  1. Enter the Draining state: Query/Schedule refuse with ErrDraining
//     (clients fail over), Status advertises StateDraining.
//  2. Settle: wait for the service stack's in-flight and queued work to
//     reach zero, so nothing accepted is abandoned. The server settles
//     its counters before a reply is written, so zero in-flight means
//     every dequeued request's handler has returned: every dispatch a
//     caller was (or is about to be) acknowledged for is in the engine,
//     and the flush carries it. A reply may still be on its way out;
//     the stop in step 4 lets it finish (wire.Server.Shutdown).
//  3. Final flush: run rounds (force-probing even dead peers) until
//     every peer has acknowledged every own record it is still owed —
//     verified against each peer's acknowledged version vector, not
//     assumed from one successful round.
//  4. Stop, letting replies still being written reach their callers.
//
// If settling or flushing exceeds the budget — in-flight work wedged, or
// a partition keeping a peer from acknowledging — the drain aborts back
// to serving and returns an error: a broker that cannot discharge its
// obligations keeps them, it does not strand them. The caller (normally
// the elastic Controller) decides whether to retry later.
//
// A Report arriving in the instant between the verified flush and the
// stop can still miss the last exchange; the Controller closes that
// window by rebinding the victim's clients away before draining.
func (dp *DecisionPoint) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 4 * dp.cfg.PeerTimeout
	}
	dp.mu.Lock()
	if !dp.started {
		dp.mu.Unlock()
		return fmt.Errorf("digruber: %s: drain of a stopped decision point", dp.cfg.Name)
	}
	if dp.draining {
		dp.mu.Unlock()
		return fmt.Errorf("digruber: %s: already draining", dp.cfg.Name)
	}
	dp.draining = true
	dp.mu.Unlock()
	dp.metrics.drains.Inc()

	deadline := dp.cfg.Clock.Now().Add(timeout)
	poll := drainPoll(timeout)

	// Settle. Refused Query/Schedule calls pass through the stack quickly;
	// what this waits out is genuinely accepted work.
	for {
		st := dp.serverStats()
		if st.InFlight == 0 && st.Queued == 0 && st.LaneInFlight == 0 && st.LaneQueued == 0 {
			break
		}
		if !dp.cfg.Clock.Now().Before(deadline) {
			return dp.abortDrain("in-flight work did not settle")
		}
		dp.cfg.Clock.Sleep(poll)
	}

	// Final flush, verified: no peer may be owed an own record. One round
	// is not enough evidence — a call can fail against a partitioned
	// peer — so this retries until the acknowledgments prove
	// completeness or the budget runs out.
	for !dp.flushComplete() {
		dp.syncNow(true)
		if dp.flushComplete() {
			break
		}
		if !dp.cfg.Clock.Now().Before(deadline) {
			return dp.abortDrain("final flush not acknowledged by every peer")
		}
		dp.cfg.Clock.Sleep(poll)
	}

	dp.stop(true)
	dp.metrics.retired.Inc()
	return nil
}

// abortDrain returns the decision point to serving and reports why.
func (dp *DecisionPoint) abortDrain(reason string) error {
	dp.mu.Lock()
	dp.draining = false
	dp.mu.Unlock()
	dp.metrics.drainAborts.Inc()
	return fmt.Errorf("digruber: %s: drain aborted: %s", dp.cfg.Name, reason)
}

// flushComplete reports whether no peer is owed an own dispatch record
// — the drain protocol's exit condition for the final flush. A peer is
// owed the own-log records above its acknowledged self-entry. Records
// the own log no longer holds were acknowledged by every peer or have
// expired, so with the own log empty nobody is owed anything, not even
// a dead peer that was never removed.
func (dp *DecisionPoint) flushComplete() bool {
	if dp.engine.OriginLogSize(dp.cfg.Name) == 0 {
		return true
	}
	hi := dp.engine.LocalSeqHighWater()
	dp.mu.Lock()
	defer dp.mu.Unlock()
	//lint:allow mapiter -- conjunction over values; order-independent
	for _, l := range dp.peers {
		if l.ackVV[dp.cfg.Name] < hi {
			return false
		}
	}
	return true
}
