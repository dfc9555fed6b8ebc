package gruber

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"digruber/internal/vtime"
)

func TestSnapshotRoundTripRestoresView(t *testing.T) {
	clock := vtime.NewManual(epoch)
	donor := newEngine(clock, "")
	donor.UpdateSites(statuses(100, 100), clock.Now())
	// A mix of the donor's own records and ones it learned from peers —
	// including some originally brokered by the engine that will crash.
	donor.RecordDispatch(Dispatch{JobID: "d1", Site: "site-000", Owner: "atlas", CPUs: 10, Runtime: time.Hour, At: clock.Now()})
	donor.MergeGossip("dp-1", []Dispatch{
		{JobID: "r1", Site: "site-001", Owner: "cms", CPUs: 20, Runtime: time.Hour, At: clock.Now(), Origin: "dp-1", Seq: 1},
		{JobID: "r2", Site: "site-000", Owner: "cms", CPUs: 5, Runtime: time.Hour, At: clock.Now(), Origin: "dp-1", Seq: 2},
	})

	crashed := NewEngine("dp-1", nil, clock)
	crashed.UpdateSites(statuses(100, 100), clock.Now())
	crashed.RecordDispatch(Dispatch{JobID: "r1", Site: "site-001", Owner: "cms", CPUs: 20, Runtime: time.Hour, At: clock.Now()})
	crashed.DropDynamicState()
	if got := crashed.PendingDispatches(); got != 0 {
		t.Fatalf("pending after crash = %d, want 0", got)
	}
	if got := crashed.EstFreeCPUs("site-001"); got != 100 {
		t.Fatalf("est after crash = %d, want baseline 100", got)
	}

	snap := donor.ExportSnapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d dispatches, want 3", len(snap))
	}
	if merged := crashed.ImportSnapshot(snap); merged != 3 {
		t.Fatalf("merged %d, want 3 (own-origin records must not be filtered)", merged)
	}
	// The rejoined engine's view now matches the donor's.
	for _, site := range []string{"site-000", "site-001"} {
		if a, b := donor.EstFreeCPUs(site), crashed.EstFreeCPUs(site); a != b {
			t.Errorf("%s: donor est %d vs rejoined est %d", site, a, b)
		}
	}
	// Idempotent: importing the same snapshot again changes nothing.
	if merged := crashed.ImportSnapshot(snap); merged != 0 {
		t.Fatalf("re-import merged %d, want 0", merged)
	}
}

func TestExportSnapshotOmitsExpired(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), clock.Now())
	e.RecordDispatch(Dispatch{JobID: "short", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Minute, At: clock.Now()})
	e.RecordDispatch(Dispatch{JobID: "long", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	clock.Advance(5 * time.Minute)
	snap := e.ExportSnapshot()
	if len(snap) != 1 || snap[0].JobID != "long" {
		t.Fatalf("snapshot = %+v, want only the unexpired dispatch", snap)
	}
}

func TestExportSnapshotDeterministicOrder(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100, 100, 100), clock.Now())
	for i := 9; i >= 0; i-- {
		e.RecordDispatch(Dispatch{
			JobID: fmt.Sprintf("j%d", i), Site: fmt.Sprintf("site-%03d", i%3),
			Owner: "atlas", CPUs: 1, Runtime: time.Hour,
			At: clock.Now().Add(time.Duration(i%4) * time.Second),
		})
	}
	a, b := e.ExportSnapshot(), e.ExportSnapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two exports of the same view differ")
	}
	for i := 1; i < len(a); i++ {
		prev, cur := a[i-1], a[i]
		if cur.At.Before(prev.At) || (cur.At.Equal(prev.At) && cur.JobID < prev.JobID) {
			t.Fatalf("snapshot out of order at %d: %+v then %+v", i, prev, cur)
		}
	}
}

func TestDropDynamicStateResetsExchangeLog(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), clock.Now())
	e.RecordDispatch(Dispatch{JobID: "j1", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	if n, hi := e.OriginLogSize(e.Name()), e.LocalSeqHighWater(); n != 1 || hi != 1 {
		t.Fatalf("pre-crash log: %d records, high-water %d", n, hi)
	}
	e.DropDynamicState()
	if n, hi := e.OriginLogSize(e.Name()), e.LocalSeqHighWater(); n != 0 || hi != 0 {
		t.Fatalf("post-crash log: %d records, high-water %d, want empty at 0", n, hi)
	}
	// The dedup set was wiped too: the same JobID can be re-learned.
	e.RecordDispatch(Dispatch{JobID: "j1", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	if got := e.EstFreeCPUs("site-000"); got != 99 {
		t.Fatalf("est after re-record = %d, want 99", got)
	}
}
