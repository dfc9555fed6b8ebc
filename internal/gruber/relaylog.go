package gruber

import (
	"sort"

	"digruber/internal/trace"
)

// This file holds the engine's dispatch logs: one per origin decision
// point, each a contiguous run of sequence-numbered records above a
// compaction floor. The version vector (origin → highest sequence number
// held) is what a peer acknowledges, what a push is diffed against, and
// what compaction is computed over. Both dissemination shapes run on it:
//
//   - The paper's full mesh: every round an origin pushes its own records
//     to every peer, so receivers need nothing but each remote origin's
//     floor (relay off; MergeGossip advances the floor and applies the
//     record to the site views).
//   - Gossip: a round reaches a sample of peers and ships anything the
//     receiver's vector lacks, own or relayed, so receivers retain remote
//     records to forward them (relay on) and news crosses the fleet in
//     O(log N) hops over a sparse graph.
//
// One compaction rule bounds every log, the own log included: records
// acknowledged across the caller's whole peer set are dropped, and so is
// any expired prefix (see CompactOrigins).

// originLog is one origin's dispatch records as a contiguous run:
// recs[i] carries sequence number dropped+i+1, and everything at or
// below dropped has been compacted away.
type originLog struct {
	recs    []Dispatch
	dropped uint64
}

// hi returns the highest sequence number the log covers (compacted
// records count — they were held and acknowledged or expired).
func (l *originLog) hi() uint64 { return l.dropped + uint64(len(l.recs)) }

// appendNext stamps the next sequence number on d and appends it,
// returning the stamped record. Used for the engine's own log, where the
// engine is the numbering authority.
func (l *originLog) appendNext(d Dispatch) Dispatch {
	d.Seq = l.hi() + 1
	l.recs = append(l.recs, d)
	return d
}

// after returns the records with sequence numbers greater than cursor.
// The returned slice aliases the log; callers copy before releasing the
// engine lock.
func (l *originLog) after(cursor uint64) []Dispatch {
	start := uint64(0)
	if cursor > l.dropped {
		start = cursor - l.dropped
	}
	if start > uint64(len(l.recs)) {
		start = uint64(len(l.recs))
	}
	return l.recs[start:]
}

// admit extends the log with d, whose sequence number lies above hi:
// appended when it is the next one, otherwise the run restarts at d (the
// records in between were compacted away before this engine saw them).
// Without retain only the floor advances.
func (l *originLog) admit(d Dispatch, retain bool) {
	switch {
	case !retain:
		l.recs, l.dropped = nil, d.Seq
	case d.Seq == l.hi()+1:
		l.recs = append(l.recs, d)
	default:
		l.recs, l.dropped = append([]Dispatch(nil), d), d.Seq-1
	}
}

// dropThrough compacts records with sequence numbers at or below cursor.
func (l *originLog) dropThrough(cursor uint64) {
	if cursor <= l.dropped {
		return
	}
	n := cursor - l.dropped
	if n > uint64(len(l.recs)) {
		n = uint64(len(l.recs))
	}
	l.recs = append([]Dispatch(nil), l.recs[n:]...)
	l.dropped += n
}

// logLocked returns the log for origin, creating it on first use.
// Caller holds e.mu.
func (e *Engine) logLocked(origin string) *originLog {
	l := e.logs[origin]
	if l == nil {
		l = &originLog{}
		e.logs[origin] = l
	}
	return l
}

// OriginVector returns the engine's version vector: for every origin it
// holds a log for, the highest contiguous dispatch sequence number held.
// This is the anti-entropy digest a gossip round advertises.
func (e *Engine) OriginVector() map[string]uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	vv := make(map[string]uint64, len(e.logs))
	//lint:allow mapiter -- map-to-map copy; order cannot matter
	for origin, l := range e.logs {
		vv[origin] = l.hi()
	}
	return vv
}

// DispatchesSince returns the log records a peer with version vector vv
// lacks: for every origin, records with sequence numbers above
// vv[origin] (missing origins count as zero), in sorted-origin order and
// ascending sequence within an origin. maxRecords bounds the batch
// (0 = unbounded); origins are filled in sorted order until the budget
// runs out, and the next round continues from the receiver's advanced
// vector. When the peer's cursor sits below a log's compacted floor the
// batch starts at the floor; the receiver fast-forwards over the gap
// (see MergeGossip).
func (e *Engine) DispatchesSince(vv map[string]uint64, maxRecords int) []Dispatch {
	e.mu.RLock()
	defer e.mu.RUnlock()
	origins := make([]string, 0, len(e.logs))
	for origin := range e.logs {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	var out []Dispatch
	for _, origin := range origins {
		recs := e.logs[origin].after(vv[origin])
		if maxRecords > 0 && len(out)+len(recs) > maxRecords {
			recs = recs[:maxRecords-len(out)]
		}
		out = append(out, recs...)
		if maxRecords > 0 && len(out) >= maxRecords {
			break
		}
	}
	return out
}

// GossipMergeStats describes one MergeGossip call.
type GossipMergeStats struct {
	// Stored counts records admitted to their origin's log: retained
	// for relay when the engine relays, otherwise advancing the origin's
	// floor.
	Stored int
	// Relayed counts stored records whose origin is neither this engine
	// nor the sending peer — third-party news the mesh forwarded, the
	// measure of transitive relay actually happening.
	Relayed int
	// Applied counts records folded into the site views (unexpired,
	// previously unseen JobIDs against known sites).
	Applied int
	// Duplicates counts records the version vector already covered —
	// gossip's redundancy cost, and a retransmission's.
	Duplicates int
	// Resets counts origin-log resets forced by sequence regressions (an
	// origin crashed, lost its log, and renumbered from 1).
	Resets int
}

// MergeGossipCtx is MergeGossip recorded as an engine.merge span under
// the given trace context.
func (e *Engine) MergeGossipCtx(ctx trace.SpanContext, from string, records []Dispatch) GossipMergeStats {
	sp := e.getTracer().StartSpan(ctx, trace.PhaseEngineMerge)
	st := e.MergeGossip(from, records)
	sp.End()
	return st
}

// MergeGossip folds dispatch records a peer sent into the per-origin
// logs and the site views. from names the sending peer (only for the
// Relayed count). Records must carry Origin and Seq; unstamped records
// and echoes of this engine's own records are ignored — the own log is
// the numbering authority. With relay off (SetRelay) a remote origin's
// log keeps only its floor, which is all a full-mesh receiver needs.
//
// Within an origin the sequence run must stay contiguous, which three
// cases can break:
//
//   - Seq above hi+1: the sender compacted records below its floor before
//     this engine ever saw them. Fast-forward — reset the log's floor to
//     the incoming record. The skipped records were acknowledged across
//     the sender's whole peer set or expired, so their loss is the
//     bounded staleness dissemination already accepts (and their effect
//     on this view, if any, arrived when they were applied).
//   - Seq at or below hi with a seen JobID: a plain duplicate (two gossip
//     paths, or a retransmission after a lost reply, delivered it again).
//   - Seq at or below hi with an unseen JobID: the origin restarted and
//     renumbered from 1 (sequence reuse). Reset the log to the new
//     incarnation so its fresh records flow again; late old-incarnation
//     relays may bounce the log once more, which converges as their
//     JobIDs enter the dedup set.
func (e *Engine) MergeGossip(from string, records []Dispatch) GossipMergeStats {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	var st GossipMergeStats
	for _, d := range records {
		if d.Origin == "" || d.Seq == 0 || d.Origin == e.name {
			continue
		}
		l := e.logLocked(d.Origin)
		if d.Seq <= l.hi() {
			if _, dup := e.seen[d.JobID]; dup {
				st.Duplicates++
				continue
			}
			l.recs, l.dropped = nil, d.Seq-1
			st.Resets++
		}
		l.admit(d, e.relay)
		st.Stored++
		e.appendLocked(d, true)
		if d.Origin != from {
			st.Relayed++
		}
		if !e.markSeenLocked(d) {
			continue // view already has it (e.g. via a snapshot import)
		}
		e.stats.RemoteDispatches++
		if d.Expired(now) {
			continue // stale news: job already assumed finished
		}
		if sv, ok := e.sites[d.Site]; ok {
			sv.applyLocked(d)
			st.Applied++
		}
	}
	return st
}

// CompactOrigins bounds the per-origin logs, the engine's own included:
// for every origin, records acknowledged across the caller's whole peer
// set (seq ≤ acked[origin]) are dropped, and so is any expired prefix —
// an expired dispatch no longer affects anyone's view, so shipping it is
// pointless. Expiry is what keeps a dead peer that was never removed
// from pinning the own log forever; a peer that comes back is
// fast-forwarded over the gap (see MergeGossip). Log entries survive
// emptying so the version vector keeps its floor.
func (e *Engine) CompactOrigins(acked map[string]uint64) {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:allow mapiter -- per-origin front-drop with no cross-origin reads; order cannot matter
	for origin, l := range e.logs {
		l.dropThrough(acked[origin])
		n := 0
		for n < len(l.recs) && l.recs[n].Expired(now) {
			n++
		}
		if n > 0 {
			l.dropThrough(l.dropped + uint64(n))
		}
	}
}

// OriginLogSize reports how many records the engine currently holds in
// the named origin's log (0 for unknown origins) — a memory-bound probe
// for tests and status displays.
func (e *Engine) OriginLogSize(origin string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	l := e.logs[origin]
	if l == nil {
		return 0
	}
	return len(l.recs)
}
