package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/wal"
)

// phase is what one timed pass over the job stream observed.
type phase struct {
	ops    int
	failed int
	// problems lists every correctness failure, decisions and fleet
	// checks alike; each one counts toward error_rate.
	problems []string

	wall time.Duration
	lat  []time.Duration // per job, client-observed Schedule time
	// segments splits the timed phase into consecutive slices of equal
	// job counts, by completion order; the reported rates and
	// percentiles are medians over them, so one burst of interference
	// from elsewhere on the box moves one segment, not the result.
	segments []segment
	// setups holds each set-up time in seconds; heapMB is the live heap
	// after the timed phase, with the system still up.
	setups  []float64
	heapMB  float64
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration

	brokered []int64 // interactions per decision point
	// The mesh round: one ExchangeNow per decision point, each timed.
	roundTimes []time.Duration
	sentRecs   int
	live       int // Engine.PendingDispatches on dp-0 at the end
}

// segment is one slice of the timed phase.
type segment struct {
	ops  int
	wall time.Duration
	cpu  time.Duration
	lat  []time.Duration
}

func (s segment) throughput() float64 { return float64(s.ops) / s.wall.Seconds() }

// throughput is the median of the phase's segment throughputs.
func (ph *phase) throughput() float64 {
	t := make([]float64, len(ph.segments))
	for i, s := range ph.segments {
		t[i] = s.throughput()
	}
	return median(t)
}

// numSegments is how many segments a timed phase is split into.
const numSegments = 10

// drive runs the job stream through the rig's clients: numClients
// closed-loop goroutines, client g taking jobs g, g+numClients, ... and
// waiting for each decision before sending the next. Every decision
// passes the correctness gate. With a mesh, the pass is one exchange
// period: after its last job comes one round of ExchangeNow on every
// decision point, inside the timed phase.
func (r *rig) drive(jobs []*grid.Job) *phase {
	ph := &phase{ops: len(jobs), lat: make([]time.Duration, len(jobs)), brokered: make([]int64, len(r.dps))}
	var mu sync.Mutex // guards ph.problems and ph.failed
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		ph.failed++
		if len(ph.problems) < 20 {
			ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	segs := min(numSegments, len(jobs))
	segOf := make([]int, len(jobs))
	type mark struct {
		at  time.Time
		cpu time.Duration
	}
	marks := make([]mark, segs+1)
	cpu0 := cpuTime()
	start := time.Now()
	marks[0] = mark{start, cpu0}

	var completed atomic.Int64
	var wg sync.WaitGroup
	for g := range r.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, probe := r.clients[g], r.selectors[g]
			for k := g; k < len(jobs); k += len(r.clients) {
				j := jobs[k]
				t0 := time.Now()
				dec := c.Schedule(j)
				ph.lat[k] = time.Since(t0)
				switch {
				case dec.Err != nil:
					fail("job %s: %v", j.ID, dec.Err)
				case !dec.Handled:
					fail("job %s: not handled", j.ID)
				case !r.sites[dec.Site]:
					fail("job %s: site %q is not in the grid", j.ID, dec.Site)
				case !r.spec.singleCall && (!probe.lastOK || probe.lastSite != dec.Site):
					fail("job %s: site %q was not chosen by the USLA select", j.ID, dec.Site)
				}
				atomic.AddInt64(&ph.brokered[r.bound[g]], 1)
				n := int(completed.Add(1))
				seg := (n - 1) * segs / len(jobs)
				segOf[k] = seg
				if n == (seg+1)*len(jobs)/segs {
					marks[seg+1] = mark{time.Now(), cpuTime()}
				}
			}
		}(g)
	}
	wg.Wait()
	if r.spec.mesh {
		r.meshRound(ph)
	}

	ph.wall = time.Since(start)
	ph.segments = make([]segment, segs)
	for i := range ph.segments {
		ph.segments[i] = segment{
			ops:  (i+1)*len(jobs)/segs - i*len(jobs)/segs,
			wall: marks[i+1].at.Sub(marks[i].at),
			cpu:  marks[i+1].cpu - marks[i].cpu,
		}
	}
	for k, seg := range segOf {
		ph.segments[seg].lat = append(ph.segments[seg].lat, ph.lat[k])
	}
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.bytes = m1.TotalAlloc - m0.TotalAlloc
	ph.gcs = m1.NumGC - m0.NumGC
	ph.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	r.checkFleet(ph, jobs, start, fail)
	return ph
}

// meshRound runs one synchronization round: ExchangeNow on every
// decision point in turn, each timed from the benchmark.
func (r *rig) meshRound(ph *phase) {
	for _, dp := range r.dps {
		t0 := time.Now()
		ph.sentRecs += dp.ExchangeNow()
		ph.roundTimes = append(ph.roundTimes, time.Since(t0))
	}
}

// checkFleet is the correctness gate's fleet half: each decision point
// brokered exactly the interactions sent to it, a meshed fleet converged
// on the same live population after the round, and the write-ahead logs
// pass walProblem.
func (r *rig) checkFleet(ph *phase, jobs []*grid.Job, start time.Time, fail func(string, ...any)) {
	// A job can only have expired if its runtime is shorter than the
	// time since the timed phase began; with the paper's runtimes that
	// never happens in a run, but the check must not assume it.
	elapsed := time.Since(start)
	mayExpire := 0
	for _, j := range jobs {
		if j.Runtime <= elapsed {
			mayExpire++
		}
	}
	for i, dp := range r.dps {
		es := dp.Engine().Stats()
		if es.LocalDispatches != ph.brokered[i] {
			fail("%s: engine recorded %d local dispatches, clients completed %d interactions with it",
				dp.Name(), es.LocalDispatches, ph.brokered[i])
		}
		if r.spec.mesh {
			live := dp.Engine().PendingDispatches()
			if live > len(jobs) || live < len(jobs)-mayExpire {
				fail("%s: %d live dispatches after the mesh round, fleet brokered %d", dp.Name(), live, len(jobs))
			}
		}
		if p := walProblem(r.spec.durable, es, dp.WALStats()); p != "" {
			fail("%s: %s", dp.Name(), p)
		}
	}
	ph.live = r.dps[0].Engine().PendingDispatches()
}

// walProblem is the correctness gate's write-ahead half for one decision
// point. On a durable workload the log holds exactly one append per
// record the engine took, local and remote, with no append errors; on
// any other workload it holds nothing, so disabled durability stays off
// the path. Whether a log is expected comes from the workload, not from
// what was observed: a durable decision point that stopped appending
// altogether reports zero appends and fails.
func walProblem(durable bool, es gruber.EngineStats, ws wal.Stats) string {
	want := int64(0)
	if durable {
		want = es.LocalDispatches + es.RemoteDispatches
	}
	if ws.Appends != want || ws.AppendErrors != 0 {
		return fmt.Sprintf("WAL holds %d appends (%d errors) for %d records (durable: %v)", ws.Appends, ws.AppendErrors, want, durable)
	}
	return ""
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// waitGoroutines waits up to five seconds for the goroutine count to
// fall back to baseline, reporting whether it did.
func waitGoroutines(baseline int) (int, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
