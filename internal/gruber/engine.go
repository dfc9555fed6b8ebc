// Package gruber implements the GRUBER broker the paper builds DI-GRUBER
// on: the engine that maintains a USLA-constrained view of grid resource
// utilization, the site selectors that answer "which is the best site at
// which I can run this job?", and the queue manager that throttles
// submission hosts against VO policy.
//
// The engine follows the paper's chosen dissemination model (Section
// 3.5, second approach): every decision point has complete static
// knowledge of the grid's resources, while dynamic utilization is
// estimated from the scheduling decisions it observes — its own
// dispatches plus those reported by peer decision points. A dispatch is
// assumed to occupy its CPUs for the job's declared runtime and expires
// from the view afterwards.
//
// Every dispatch carries its origin decision point and a sequence number
// in that origin's log, so one mechanism serves every dissemination
// strategy: per-origin logs summarised by a version vector
// (relaylog.go). A peer is sent the log records its acknowledged vector
// lacks and merges them with MergeGossip; the paper's full mesh is the
// special case where each origin pushes only its own log to every peer
// and receivers keep just the remote origins' floors (SetRelay).
package gruber

import (
	"container/heap"
	"sort"
	"sync"
	"time"

	"digruber/internal/grid"
	"digruber/internal/trace"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// Dispatch records one scheduling decision: a job placed at a site. It is
// both the unit of intra-engine bookkeeping and the unit of information
// decision points exchange.
type Dispatch struct {
	JobID string
	Site  string
	// Owner is the dotted consumer path.
	Owner string
	CPUs  int
	// Runtime is the job's declared runtime; the engine expires the
	// dispatch from its utilization estimate after Runtime elapses.
	Runtime time.Duration
	// At is when the dispatch happened.
	At time.Time
	// Origin is the decision point that brokered the job.
	Origin string
	// Seq is the record's position in its origin's dispatch log, assigned
	// by the origin engine at append time (1-based; 0 means unstamped —
	// a record from a build that predates per-origin logs). Together with
	// Origin it names the record globally, which is what lets gossip
	// relay third-party records and deduplicate them with a version
	// vector instead of per-peer cursors. Appended as the struct's last
	// field: gob's value encoding elides zero fields, so records without
	// it stay byte-identical to older builds (see TestDispatchWireCompat).
	Seq uint64
}

// Expired reports whether the dispatched job should be assumed finished.
func (d Dispatch) Expired(now time.Time) bool {
	return now.After(d.At.Add(d.Runtime))
}

// SiteLoad is the engine's answer for one candidate site, as shipped to
// site selectors: estimated availability plus the USLA evaluation for
// the requesting consumer.
type SiteLoad struct {
	Name      string
	TotalCPUs int
	// EstFreeCPUs is the engine's estimate of free CPUs (capacity minus
	// unexpired dispatches against the last known baseline).
	EstFreeCPUs int
	// Headroom is the USLA hard (upper-limit) headroom for the consumer
	// at this site, in CPUs.
	Headroom float64
	// TargetGap is how far under (+) or over (−) fair-share target the
	// consumer is at this site, in CPUs.
	TargetGap float64
}

// Engine is the GRUBER engine: one decision point's view of the grid.
type Engine struct {
	name  string
	clock vtime.Clock
	// tracer records engine-phase spans for traced requests (see the Ctx
	// method variants); set it with SetTracer at wiring time. Nil
	// disables tracing at zero cost.
	tracer *trace.Tracer

	mu       sync.RWMutex
	policies *usla.PolicySet
	sites    map[string]*siteView
	order    []string
	// seen is the JobID → expiry dedup set behind snapshot imports,
	// recovery replay and MergeGossip's origin-restart detection;
	// seenAfterSweep is its size after the last expiry sweep.
	seen           map[string]time.Time
	seenAfterSweep int
	// logs holds one dispatch log per origin decision point: this
	// engine's own brokered dispatches (origin == name) plus one log per
	// remote origin (see relaylog.go). Each log is one contiguous run of
	// sequence-numbered records above a compaction floor.
	logs map[string]*originLog
	// relay selects whether remote-origin records are retained for
	// onward relay (gossip) or only advance their origin's floor (the
	// full mesh, where every origin pushes to every peer itself).
	relay bool
	stats EngineStats
	// appender is the write-ahead hook (see SetAppender in durable.go):
	// called under e.mu for every dispatch record entering dynamic
	// state, in mutation order. Nil when durability is off.
	appender func(d Dispatch, logged bool)
}

// EngineStats counts engine activity.
type EngineStats struct {
	Queries           int64
	LocalDispatches   int64
	RemoteDispatches  int64
	DuplicateIgnored  int64
	ExpiredPruned     int64
	BaselineRefreshes int64
}

type siteView struct {
	base   grid.Status
	baseAt time.Time
	// pending tracks unexpired dispatches newer than the baseline.
	pending    dispatchHeap
	usedDelta  int
	usageDelta map[string]int
}

// dispatchHeap orders dispatches by expiry time.
type dispatchHeap []Dispatch

func (h dispatchHeap) Len() int { return len(h) }
func (h dispatchHeap) Less(i, j int) bool {
	return h[i].At.Add(h[i].Runtime).Before(h[j].At.Add(h[j].Runtime))
}
func (h dispatchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dispatchHeap) Push(x interface{}) { *h = append(*h, x.(Dispatch)) }
func (h *dispatchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// NewEngine returns an engine named name (the decision point identity
// used as dispatch Origin) with the given USLA policy set.
func NewEngine(name string, policies *usla.PolicySet, clock vtime.Clock) *Engine {
	if policies == nil {
		policies = usla.NewPolicySet()
	}
	return &Engine{
		name:     name,
		clock:    clock,
		policies: policies,
		sites:    make(map[string]*siteView),
		seen:     make(map[string]time.Time),
		logs:     make(map[string]*originLog),
		relay:    true,
	}
}

// SetRelay selects whether MergeGossip (and recovery replay) retains
// remote-origin records in their logs, so they can be relayed to peers
// that lack them (on, the default), or keeps only each remote origin's
// version-vector floor (off). Set it at wiring time, before the engine
// takes records.
func (e *Engine) SetRelay(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.relay = on
}

// Name returns the engine's identity.
func (e *Engine) Name() string { return e.name }

// SetTracer installs the tracer the Ctx method variants record spans
// against. Set it before the engine starts serving requests.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tracer = t
}

func (e *Engine) getTracer() *trace.Tracer {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tracer
}

// Policies returns the engine's USLA policy set (live; additions take
// effect immediately).
func (e *Engine) Policies() *usla.PolicySet { return e.policies }

// UpdateSites installs or refreshes the baseline view of sites, as a
// monitor.Sink. The initial call is the paper's "complete static
// knowledge about available resources"; later calls re-baseline the
// dynamic estimate (dispatches at or before the snapshot are dropped,
// since the snapshot already reflects them).
func (e *Engine) UpdateSites(statuses []grid.Status, at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.BaselineRefreshes++
	for _, st := range statuses {
		sv, ok := e.sites[st.Name]
		if !ok {
			sv = &siteView{usageDelta: make(map[string]int)}
			e.sites[st.Name] = sv
			e.order = append(e.order, st.Name)
		}
		sv.base = st
		sv.baseAt = at
		// Re-apply only dispatches strictly newer than the snapshot.
		old := sv.pending
		sv.pending = nil
		sv.usedDelta = 0
		sv.usageDelta = make(map[string]int)
		for _, d := range old {
			if d.At.After(at) {
				sv.applyLocked(d)
			}
		}
	}
	sort.Strings(e.order)
}

// applyLocked folds a dispatch into the view. Caller holds e.mu.
func (sv *siteView) applyLocked(d Dispatch) {
	heap.Push(&sv.pending, d)
	sv.usedDelta += d.CPUs
	if p, err := usla.ParsePath(d.Owner); err == nil {
		for _, prefix := range p.Prefixes() {
			sv.usageDelta[prefix.String()] += d.CPUs
		}
	}
}

// pruneLocked drops expired dispatches from the view. Caller holds e.mu.
func (sv *siteView) pruneLocked(now time.Time, stats *EngineStats) {
	for len(sv.pending) > 0 && sv.pending[0].Expired(now) {
		d := heap.Pop(&sv.pending).(Dispatch)
		sv.usedDelta -= d.CPUs
		if p, err := usla.ParsePath(d.Owner); err == nil {
			for _, prefix := range p.Prefixes() {
				sv.usageDelta[prefix.String()] -= d.CPUs
				if sv.usageDelta[prefix.String()] <= 0 {
					delete(sv.usageDelta, prefix.String())
				}
			}
		}
		stats.ExpiredPruned++
	}
}

// estFree is the view's free-CPU estimate. Caller holds e.mu.
func (sv *siteView) estFree() int {
	free := sv.base.FreeCPUs - sv.usedDelta
	if free < 0 {
		free = 0
	}
	if free > sv.base.TotalCPUs {
		free = sv.base.TotalCPUs
	}
	return free
}

// SiteLoadsCtx is SiteLoads recorded as an engine.select span under the
// given trace context.
func (e *Engine) SiteLoadsCtx(ctx trace.SpanContext, owner usla.Path, cpus int) []SiteLoad {
	sp := e.getTracer().StartSpan(ctx, trace.PhaseEngineSelect)
	loads := e.SiteLoads(owner, cpus)
	sp.End()
	return loads
}

// SiteLoads evaluates every known site for a job of the given owner and
// CPU demand. The returned slice is sorted by site name; selectors apply
// their own ranking.
func (e *Engine) SiteLoads(owner usla.Path, cpus int) []SiteLoad {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Queries++
	out := make([]SiteLoad, 0, len(e.order))
	for _, name := range e.order {
		sv := e.sites[name]
		sv.pruneLocked(now, &e.stats)
		usage := func(p usla.Path) float64 {
			return float64(sv.base.UsageByPath[p.String()] + sv.usageDelta[p.String()])
		}
		capacity := float64(sv.base.TotalCPUs)
		out = append(out, SiteLoad{
			Name:        name,
			TotalCPUs:   sv.base.TotalCPUs,
			EstFreeCPUs: sv.estFree(),
			Headroom:    e.policies.Headroom(name, owner, usla.CPU, capacity, usage),
			TargetGap:   e.policies.TargetGap(name, owner, usla.CPU, capacity, usage),
		})
	}
	return out
}

// RecordDispatchCtx is RecordDispatch recorded as an engine.record span
// under the given trace context.
func (e *Engine) RecordDispatchCtx(ctx trace.SpanContext, d Dispatch) {
	sp := e.getTracer().StartSpan(ctx, trace.PhaseEngineRecord)
	e.RecordDispatch(d)
	sp.End()
}

// RecordDispatch folds a locally-brokered dispatch into the view and the
// own dispatch log. The engine stamps itself as Origin and assigns the
// record's sequence number in its own dispatch log.
func (e *Engine) RecordDispatch(d Dispatch) {
	d.Origin = e.name
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.markSeenLocked(d) {
		return
	}
	e.stats.LocalDispatches++
	d = e.logLocked(e.name).appendNext(d)
	// Write-ahead append happens before RecordDispatch returns: the
	// Schedule/Report handler only acks after this, so an acked dispatch
	// is always durable (zero acked-dispatch loss across a crash).
	e.appendLocked(d, true)
	if sv, ok := e.sites[d.Site]; ok {
		sv.applyLocked(d)
	}
}

// seenSweepFloor is the dedup-set size below which markSeenLocked never
// sweeps expired JobIDs.
const seenSweepFloor = 100000

// markSeenLocked registers a JobID, returning false for duplicates.
// Expired JobIDs are swept once the set has doubled since the last sweep
// (and holds more than seenSweepFloor), so each insert pays amortised
// O(1) for the sweep however many jobs are in flight. Caller holds e.mu.
func (e *Engine) markSeenLocked(d Dispatch) bool {
	if _, dup := e.seen[d.JobID]; dup {
		e.stats.DuplicateIgnored++
		return false
	}
	if n := len(e.seen); n > seenSweepFloor && n >= 2*e.seenAfterSweep {
		now := e.clock.Now()
		//lint:allow mapiter -- expiry sweep deletes a fixed set of keys; order cannot matter
		for id, exp := range e.seen {
			if now.After(exp) {
				delete(e.seen, id)
			}
		}
		e.seenAfterSweep = len(e.seen)
	}
	e.seen[d.JobID] = d.At.Add(d.Runtime)
	return true
}

// LocalSeqHighWater returns the sequence number of the newest local
// dispatch record (0 when none has ever been recorded). A peer whose
// acknowledged version vector has reached this value for this engine's
// origin holds everything this engine ever brokered — half of the
// completeness proof a draining decision point needs before it may stop
// (the other half: records the own log no longer holds were acknowledged
// by every peer or expired, see CompactOrigins).
func (e *Engine) LocalSeqHighWater() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	l := e.logs[e.name]
	if l == nil {
		return 0
	}
	return l.hi()
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stats
}

// NumSites reports how many sites the engine knows about.
func (e *Engine) NumSites() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.order)
}

// EstFreeCPUs reports the engine's current free-CPU estimate for one
// site (0 for unknown sites) — used by tests and the accuracy metric's
// "what the broker believed" diagnostics.
func (e *Engine) EstFreeCPUs(site string) int {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	sv, ok := e.sites[site]
	if !ok {
		return 0
	}
	sv.pruneLocked(now, &e.stats)
	return sv.estFree()
}
