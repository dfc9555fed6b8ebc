package digruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/gossip"
	"digruber/internal/gruber"
	"digruber/internal/vtime"
)

// TestMeshRoundPushesOwnRecordsOnly: the paper's full mesh as a round
// contacts every peer with the sender's own records only — all of them
// in one round, however far past the gossip batch bound — and receivers
// keep just the sender's floor, so nothing is ever relayed onward.
func TestMeshRoundPushesOwnRecordsOnly(t *testing.T) {
	clock := vtime.NewManual(epoch)
	h := newHarness(t, 3, clock, testStatuses(100))
	n := gossip.DefaultMaxRecords + 100
	for i := 0; i < n; i++ {
		dispatchAt(h, 0, fmt.Sprintf("own-%d", i))
	}
	dispatchAt(h, 1, "other-0")

	if sent := h.dps[0].ExchangeNow(); sent != 2*n {
		t.Fatalf("dp-0 pushed %d records, want %d (every own record to both peers)", sent, 2*n)
	}
	if sent := h.dps[1].ExchangeNow(); sent != 2 {
		t.Fatalf("dp-1 pushed %d records, want 2 (its own record only, nothing relayed)", sent)
	}
	for _, i := range []int{1, 2} {
		e := h.dps[i].Engine()
		if size := e.OriginLogSize("dp-0"); size != 0 {
			t.Fatalf("dp-%d retains %d of dp-0's records, want 0", i, size)
		}
		if hi := e.OriginVector()["dp-0"]; hi != uint64(n) {
			t.Fatalf("dp-%d floor for dp-0 = %d, want %d", i, hi, n)
		}
	}
	if got := h.dps[2].Engine().Stats().RemoteDispatches; got != int64(n+1) {
		t.Fatalf("dp-2 merged %d remote dispatches, want %d", got, n+1)
	}
	// Both peers acknowledged dp-0's log in the same round.
	if size := h.dps[0].Engine().OriginLogSize("dp-0"); size != 0 {
		t.Fatalf("dp-0 own log holds %d records after a fleet-wide ack, want 0", size)
	}
	if sent := h.dps[0].ExchangeNow(); sent != 0 {
		t.Fatalf("idle round pushed %d records, want 0", sent)
	}
}

// TestLonePointBoundsOwnLog: a decision point with no peers has nobody
// to owe its own records to, so a round drops the whole own log under
// every disseminating strategy.
func TestLonePointBoundsOwnLog(t *testing.T) {
	for _, strategy := range []DisseminationStrategy{UsageOnly, Gossip} {
		t.Run(strategy.String(), func(t *testing.T) {
			clock := vtime.NewManual(epoch)
			h := newHarnessStrategy(t, 1, clock, testStatuses(100), strategy)
			for i := 0; i < 3; i++ {
				dispatchAt(h, 0, fmt.Sprintf("solo-%d", i))
			}
			h.dps[0].ExchangeNow()
			e := h.dps[0].Engine()
			if size := e.OriginLogSize("dp-0"); size != 0 {
				t.Fatalf("own log holds %d records after a round with no peers, want 0", size)
			}
			if hi := e.LocalSeqHighWater(); hi != 3 {
				t.Fatalf("high-water mark %d, want 3 (numbering survives compaction)", hi)
			}
		})
	}
}

// TestDeadUnremovedPeerDoesNotPinOwnLog: a peer that stops answering but
// is never removed holds back acknowledgment-based compaction, yet once
// the jobs expire the own log drains anyway; when the peer comes back,
// the drain flush owes it only what is still live and completes.
func TestDeadUnremovedPeerDoesNotPinOwnLog(t *testing.T) {
	for _, strategy := range []DisseminationStrategy{UsageOnly, Gossip} {
		t.Run(strategy.String(), func(t *testing.T) {
			clock := vtime.NewManual(epoch)
			h := newHarnessStrategy(t, 3, clock, testStatuses(100), strategy)
			h.dps[2].Stop() // no RemovePeer: the survivors keep the link
			for i := 0; i < 4; i++ {
				dispatchAt(h, 0, fmt.Sprintf("pinned-%d", i))
			}
			e := h.dps[0].Engine()
			// Rounds that call the stopped peer wait out PeerTimeout on the
			// virtual clock, so they are driven by advancing it.
			driveExchange(t, clock, h.dps[0])
			if size := e.OriginLogSize("dp-0"); size != 4 {
				t.Fatalf("own log holds %d records while dp-2 owes acks and jobs run, want 4", size)
			}

			clock.Advance(3 * time.Hour) // past the 2h runtimes
			driveExchange(t, clock, h.dps[0])
			if size := e.OriginLogSize("dp-0"); size != 0 {
				t.Fatalf("own log holds %d expired records, want 0", size)
			}

			if err := h.dps[2].Start(); err != nil {
				t.Fatal(err)
			}
			h.dps[0].Engine().RecordDispatch(gruber.Dispatch{
				JobID: "fresh", Site: "site-000", Owner: "atlas", CPUs: 2,
				Runtime: 2 * time.Hour, At: clock.Now(),
			})
			drained := make(chan error, 1)
			go func() { drained <- h.dps[0].Drain(10 * time.Minute) }()
			var err error
			for waiting := true; waiting; {
				select {
				case err = <-drained:
					waiting = false
				default:
					time.Sleep(time.Millisecond) // real pause: let sleepers register
					clock.Advance(time.Second)
				}
			}
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if got := h.dps[2].Engine().PendingDispatches(); got != 1 {
				t.Fatalf("returning peer holds %d live dispatches after the flush, want 1", got)
			}
		})
	}
}

// TestRestartedPointRenumbersPastStaleFloor: a crashed point whose old
// records have all expired restarts its own numbering below the floor
// its peers still hold for it. An idle first round must not turn that
// stale floor into an acknowledgment: the records dispatched afterwards
// still reach every peer, and the drain flush does not pass before they
// are sent.
func TestRestartedPointRenumbersPastStaleFloor(t *testing.T) {
	for _, strategy := range []DisseminationStrategy{UsageOnly, Gossip} {
		t.Run(strategy.String(), func(t *testing.T) {
			clock := vtime.NewManual(epoch)
			h := newHarnessStrategy(t, 3, clock, testStatuses(100), strategy)
			for i := 0; i < 3; i++ {
				dispatchAt(h, 0, fmt.Sprintf("old-%d", i))
			}
			h.dps[0].ExchangeNow()
			for _, i := range []int{1, 2} {
				if hi := h.dps[i].Engine().OriginVector()["dp-0"]; hi != 3 {
					t.Fatalf("dp-%d floor for dp-0 = %d before the crash, want 3", i, hi)
				}
			}

			clock.Advance(3 * time.Hour) // past the 2h runtimes
			h.dps[0].Crash()
			if err := h.dps[0].Restart(); err != nil {
				t.Fatal(err)
			}
			if hi := h.dps[0].Engine().LocalSeqHighWater(); hi != 0 {
				t.Fatalf("restarted high-water mark %d, want 0 (nothing live to re-adopt)", hi)
			}
			if sent := h.dps[0].ExchangeNow(); sent != 0 {
				t.Fatalf("idle round after restart pushed %d records, want 0", sent)
			}

			dispatchAt(h, 0, "new-0")
			if h.dps[0].flushComplete() {
				t.Fatal("drain flush complete before the renumbered record was pushed")
			}
			if sent := h.dps[0].ExchangeNow(); sent != 2 {
				t.Fatalf("round after restart pushed %d records, want 2 (the new record to both peers)", sent)
			}
			for _, i := range []int{1, 2} {
				if got := h.dps[i].Engine().PendingDispatches(); got != 1 {
					t.Fatalf("dp-%d holds %d live dispatches, want 1 (the renumbered record)", i, got)
				}
			}
			if !h.dps[0].flushComplete() {
				t.Fatal("drain flush incomplete after both peers acknowledged the new record")
			}
		})
	}
}
