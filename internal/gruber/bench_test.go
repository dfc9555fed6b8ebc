package gruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// fullGridEngine builds an engine loaded with the paper's full-scale
// static view (300 sites) and the composite-workload policy shape.
func fullGridEngine(b *testing.B) *Engine {
	b.Helper()
	ps := usla.NewPolicySet()
	for v := 0; v < 10; v++ {
		vo := usla.Path{VO: fmt.Sprintf("vo-%02d", v)}
		ps.Add(usla.Entry{Provider: usla.AnyProvider, Consumer: vo, Resource: usla.CPU, Share: usla.Share{Percent: 10, Kind: usla.Target}})
		ps.Add(usla.Entry{Provider: usla.AnyProvider, Consumer: vo, Resource: usla.CPU, Share: usla.Share{Percent: 20, Kind: usla.UpperLimit}})
	}
	e := NewEngine("dp-bench", ps, vtime.NewManual(epoch))
	statuses := make([]grid.Status, 300)
	for i := range statuses {
		statuses[i] = grid.Status{
			Name:        fmt.Sprintf("site-%03d", i),
			TotalCPUs:   100,
			FreeCPUs:    50 + i%50,
			UsageByPath: map[string]int{"vo-01": i % 30},
		}
	}
	e.UpdateSites(statuses, epoch)
	return e
}

// BenchmarkSiteLoads300Sites measures one full scheduling query's
// engine-side evaluation over the paper's 300-site environment.
func BenchmarkSiteLoads300Sites(b *testing.B) {
	e := fullGridEngine(b)
	owner := usla.MustParsePath("vo-01.group-02")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if loads := e.SiteLoads(owner, 1); len(loads) != 300 {
			b.Fatal("wrong load count")
		}
	}
}

// BenchmarkRecordDispatch measures the per-dispatch bookkeeping cost.
func BenchmarkRecordDispatch(b *testing.B) {
	e := fullGridEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RecordDispatch(Dispatch{
			JobID: fmt.Sprintf("j%d", i), Site: "site-000", Owner: "vo-01.group-02",
			CPUs: 1, Runtime: time.Hour, At: epoch,
		})
	}
}

// BenchmarkMergeGossipBatch measures folding one pushed batch (100
// dispatches) into a peer's view.
func BenchmarkMergeGossipBatch(b *testing.B) {
	e := fullGridEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]Dispatch, 100)
		for k := range batch {
			batch[k] = Dispatch{
				JobID: fmt.Sprintf("b%d-%d", i, k), Site: fmt.Sprintf("site-%03d", k%300),
				Owner: "vo-03", CPUs: 1, Runtime: time.Hour, At: epoch,
				Origin: "dp-other", Seq: uint64(i*len(batch) + k + 1),
			}
		}
		e.MergeGossip("dp-other", batch)
	}
}

// BenchmarkUSLAAwareSelect measures client-side selector ranking over a
// full 300-site load list.
func BenchmarkUSLAAwareSelect(b *testing.B) {
	e := fullGridEngine(b)
	loads := e.SiteLoads(usla.MustParsePath("vo-01"), 1)
	sel := USLAAware{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sel.Select(loads, 1); !ok {
			b.Fatal("no selection")
		}
	}
}
