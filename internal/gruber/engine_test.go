package gruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func statuses(free ...int) []grid.Status {
	out := make([]grid.Status, len(free))
	for i, f := range free {
		out[i] = grid.Status{
			Name:        fmt.Sprintf("site-%03d", i),
			TotalCPUs:   100,
			FreeCPUs:    f,
			UsageByPath: map[string]int{},
		}
	}
	return out
}

func newEngine(clock vtime.Clock, policyText string) *Engine {
	ps := usla.NewPolicySet()
	if policyText != "" {
		entries, err := usla.ParseTextString(policyText)
		if err != nil {
			panic(err)
		}
		ps.AddAll(entries)
	}
	return NewEngine("dp-0", ps, clock)
}

func TestEngineBaselineView(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100, 40, 0), clock.Now())
	if e.NumSites() != 3 {
		t.Fatalf("sites = %d", e.NumSites())
	}
	loads := e.SiteLoads(usla.MustParsePath("atlas"), 1)
	if len(loads) != 3 {
		t.Fatalf("loads = %d", len(loads))
	}
	if loads[0].EstFreeCPUs != 100 || loads[1].EstFreeCPUs != 40 || loads[2].EstFreeCPUs != 0 {
		t.Fatalf("est free = %+v", loads)
	}
}

func TestDispatchReducesEstimate(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	e.RecordDispatch(Dispatch{JobID: "j1", Site: "site-000", Owner: "atlas", CPUs: 10, Runtime: time.Hour, At: clock.Now()})
	if got := e.EstFreeCPUs("site-000"); got != 40 {
		t.Fatalf("est free = %d, want 40", got)
	}
}

func TestDispatchExpiresAfterRuntime(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	e.RecordDispatch(Dispatch{JobID: "j1", Site: "site-000", Owner: "atlas", CPUs: 10, Runtime: 30 * time.Minute, At: clock.Now()})
	clock.Advance(29 * time.Minute)
	if got := e.EstFreeCPUs("site-000"); got != 40 {
		t.Fatalf("pre-expiry est = %d, want 40", got)
	}
	clock.Advance(2 * time.Minute)
	if got := e.EstFreeCPUs("site-000"); got != 50 {
		t.Fatalf("post-expiry est = %d, want 50", got)
	}
	if e.Stats().ExpiredPruned == 0 {
		t.Fatal("expiry not counted")
	}
}

func TestEstimateClamped(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(5), clock.Now())
	for i := 0; i < 3; i++ {
		e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("j%d", i), Site: "site-000", Owner: "atlas", CPUs: 4, Runtime: time.Hour, At: clock.Now()})
	}
	if got := e.EstFreeCPUs("site-000"); got != 0 {
		t.Fatalf("over-dispatch est = %d, want clamp to 0", got)
	}
}

func TestMergeGossipAndDedup(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	d := Dispatch{JobID: "r1", Site: "site-000", Owner: "cms", CPUs: 5, Runtime: time.Hour, At: clock.Now(), Origin: "dp-1", Seq: 1}
	if st := e.MergeGossip("dp-1", []Dispatch{d}); st.Applied != 1 {
		t.Fatalf("merge = %+v, want 1 applied", st)
	}
	if got := e.EstFreeCPUs("site-000"); got != 45 {
		t.Fatalf("est = %d, want 45", got)
	}
	// Retransmitting the same record changes nothing.
	if st := e.MergeGossip("dp-1", []Dispatch{d}); st.Applied != 0 || st.Duplicates != 1 {
		t.Fatalf("duplicate merge = %+v, want 0 applied, 1 duplicate", st)
	}
	if got := e.EstFreeCPUs("site-000"); got != 45 {
		t.Fatalf("est after dup = %d, want 45", got)
	}
}

func TestMergeGossipSkipsExpired(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	old := Dispatch{JobID: "old", Site: "site-000", Owner: "cms", CPUs: 5, Runtime: time.Minute, At: clock.Now().Add(-time.Hour), Origin: "dp-1", Seq: 1}
	if st := e.MergeGossip("dp-1", []Dispatch{old}); st.Stored != 1 || st.Applied != 0 {
		t.Fatalf("merge = %+v, want 1 stored, 0 applied", st)
	}
	if got := e.EstFreeCPUs("site-000"); got != 50 {
		t.Fatalf("expired remote dispatch applied: est = %d", got)
	}
}

func TestDispatchesSinceOwnLogAcrossCompaction(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), clock.Now())
	for i := 0; i < 5; i++ {
		clock.Advance(time.Minute)
		e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("j%d", i), Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	}
	since := func(cursor uint64) []Dispatch {
		return e.DispatchesSince(map[string]uint64{e.Name(): cursor}, 0)
	}
	if all := since(0); len(all) != 5 || e.LocalSeqHighWater() != 5 {
		t.Fatalf("after 0: %d records hi=%d, want 5 records hi=5", len(all), e.LocalSeqHighWater())
	}
	if got := since(3); len(got) != 2 || got[0].JobID != "j3" {
		t.Fatalf("after 3: %d records first=%v, want 2/j3", len(got), got)
	}
	if rest := since(99); len(rest) != 0 {
		t.Fatalf("cursor past end returned %d records", len(rest))
	}

	e.CompactOrigins(map[string]uint64{e.Name(): 3})
	if rest := since(0); len(rest) != 2 || e.LocalSeqHighWater() != 5 {
		t.Fatalf("after compact: %d records hi=%d, want 2 records hi=5", len(rest), e.LocalSeqHighWater())
	}
	// Sequence numbers survive compaction: cursor 4 still means "j4 only".
	if rest := since(4); len(rest) != 1 || rest[0].JobID != "j4" {
		t.Fatalf("after compact, cursor 4: %v", rest)
	}
	e.CompactOrigins(map[string]uint64{e.Name(): 2}) // stale cursor: must be a no-op
	if rest := since(0); len(rest) != 2 {
		t.Fatalf("stale compact changed log: %d records", len(rest))
	}
}

func TestUpdateSitesRebaselines(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	e.RecordDispatch(Dispatch{JobID: "j1", Site: "site-000", Owner: "atlas", CPUs: 10, Runtime: time.Hour, At: clock.Now()})
	clock.Advance(time.Minute)
	// Fresh snapshot at t+1m already reflects j1's occupancy (40 free);
	// the engine must not double-count j1.
	e.UpdateSites(statuses(40), clock.Now())
	if got := e.EstFreeCPUs("site-000"); got != 40 {
		t.Fatalf("rebaselined est = %d, want 40", got)
	}
	// A dispatch after the snapshot still applies on top.
	clock.Advance(time.Second)
	e.RecordDispatch(Dispatch{JobID: "j2", Site: "site-000", Owner: "atlas", CPUs: 7, Runtime: time.Hour, At: clock.Now()})
	if got := e.EstFreeCPUs("site-000"); got != 33 {
		t.Fatalf("est = %d, want 33", got)
	}
}

func TestSiteLoadsAppliesUSLA(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "* atlas cpu 20+\n* atlas cpu 10")
	e.UpdateSites(statuses(100), clock.Now())
	loads := e.SiteLoads(usla.MustParsePath("atlas"), 1)
	if loads[0].Headroom != 20 {
		t.Fatalf("headroom = %v, want 20 (20%% of 100)", loads[0].Headroom)
	}
	if loads[0].TargetGap != 10 {
		t.Fatalf("target gap = %v, want 10", loads[0].TargetGap)
	}
	// Consume 15 CPUs: headroom 5, gap -5.
	e.RecordDispatch(Dispatch{JobID: "j", Site: "site-000", Owner: "atlas", CPUs: 15, Runtime: time.Hour, At: clock.Now()})
	loads = e.SiteLoads(usla.MustParsePath("atlas"), 1)
	if loads[0].Headroom != 5 || loads[0].TargetGap != -5 {
		t.Fatalf("after dispatch: headroom %v gap %v", loads[0].Headroom, loads[0].TargetGap)
	}
}

func TestQueriesCounted(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(10), clock.Now())
	e.SiteLoads(usla.MustParsePath("atlas"), 1)
	e.SiteLoads(usla.MustParsePath("cms"), 1)
	if e.Stats().Queries != 2 {
		t.Fatalf("queries = %d", e.Stats().Queries)
	}
}

func TestEngineConcurrency(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "* atlas cpu 50+")
	e.UpdateSites(statuses(100, 100, 100, 100), clock.Now())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("a%d", i), Site: "site-001", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
		}
	}()
	for i := 0; i < 200; i++ {
		e.SiteLoads(usla.MustParsePath("atlas"), 1)
		e.MergeGossip("dp-9", []Dispatch{{JobID: fmt.Sprintf("b%d", i), Site: "site-002", Owner: "cms", CPUs: 1, Runtime: time.Hour, At: clock.Now(), Origin: "dp-9", Seq: uint64(i + 1)}})
	}
	<-done
	if got := e.EstFreeCPUs("site-001"); got != 0 {
		t.Fatalf("site-001 est = %d, want 0 after 200 dispatches", got)
	}
}
