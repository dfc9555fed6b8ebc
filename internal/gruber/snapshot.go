package gruber

import (
	"sort"
	"time"
)

// This file is the anti-entropy side of the dissemination model. The
// periodic rounds are incremental — each push carries only what the
// receiver's acknowledged vector lacks — so a decision point that
// crashes and loses its dynamic state cannot catch up from the
// incremental stream alone: its peers believe it already holds the
// records it lost, and compaction may have dropped them. Snapshot
// export/import closes that gap: a rejoining point pulls one peer's full
// unexpired view and is immediately as informed as that peer.

// ExportSnapshot returns every unexpired dispatch in the engine's view,
// in deterministic order (dispatch time, then JobID). Unlike the
// incremental exchange payload it is NOT filtered to locally-brokered
// records: the requester is assumed to have lost everything, including
// records this engine originally learned from the requester itself.
func (e *Engine) ExportSnapshot() []Dispatch {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Dispatch
	for _, name := range e.order {
		sv := e.sites[name]
		sv.pruneLocked(now, &e.stats)
		out = append(out, sv.pending...)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		return out[i].JobID < out[j].JobID
	})
	return out
}

// ImportSnapshot folds a peer's full view into this engine. Unlike
// MergeGossip it does NOT skip records whose Origin is this engine —
// after a crash this engine has lost its own brokering history too, and
// the snapshot is how it gets it back. Seen
// JobIDs are still deduplicated, so importing on a healthy engine (or
// importing two overlapping snapshots) is idempotent. Returns the number
// of dispatches folded into site views.
func (e *Engine) ImportSnapshot(dispatches []Dispatch) int {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	merged := 0
	for _, d := range dispatches {
		logged := false
		if d.Origin == e.name && d.Seq > 0 {
			// Re-adopt own-origin records into the own log: the own log is
			// the numbering authority, and a rejoining engine must never
			// re-issue a sequence number peers already hold for it. Without
			// this, the next local dispatch after a resync would reuse a
			// live sequence number, which peers can only interpret as an
			// origin restart (MergeGossip's reset path). Records may arrive
			// in view order rather than sequence order; the fast-forward
			// case still leaves hi at the snapshot's own-origin maximum.
			logged = true
			if l := e.logLocked(e.name); d.Seq > l.hi() {
				l.admit(d, true)
			}
		}
		if !e.markSeenLocked(d) {
			continue
		}
		e.appendLocked(d, logged)
		e.stats.RemoteDispatches++
		if d.Expired(now) {
			continue
		}
		if sv, ok := e.sites[d.Site]; ok {
			sv.applyLocked(d)
			merged++
		}
	}
	return merged
}

// DropDynamicState models a crash: everything the engine learned from
// scheduling decisions — pending dispatches, the dedup set, the
// per-origin logs and the own sequence numbering — is discarded. The site
// baseline survives, standing in for the paper's "complete static
// knowledge about available resources", which a restarting decision
// point re-bootstraps from configuration rather than from peers.
// Cumulative stats counters are kept (they describe the process, not
// the state).
func (e *Engine) DropDynamicState() {
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:allow mapiter -- per-site state reset with no cross-site reads; order cannot matter
	for _, sv := range e.sites {
		sv.pending = nil
		sv.usedDelta = 0
		sv.usageDelta = make(map[string]int)
	}
	e.seen = make(map[string]time.Time)
	e.seenAfterSweep = 0
	// Every per-origin log goes, the engine's own included: the sequence
	// numbering restarts from 1 on the next dispatch, which peers detect
	// as an origin restart (see MergeGossip's reset path).
	e.logs = make(map[string]*originLog)
}

// PendingDispatches reports how many unexpired dispatches the engine
// currently tracks across all sites — a convergence probe for tests and
// status reporting.
func (e *Engine) PendingDispatches() int {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	//lint:allow mapiter -- per-site prune plus integer count; both commute across sites
	for _, sv := range e.sites {
		sv.pruneLocked(now, &e.stats)
		n += len(sv.pending)
	}
	return n
}
