package digruber

import (
	"time"

	"digruber/internal/tsdb"
	"digruber/internal/wire"
)

// dpMetrics holds the decision point's event-driven instruments. The
// instruments come from the Config registry, so with no registry they
// are all nil and every operation is a no-op (tsdb instruments are
// nil-safe); the DecisionPoint never has to check whether metrics are
// enabled.
type dpMetrics struct {
	// peerUp/peerDown count health-state transitions into and out of
	// alive — edges, not per-call observations, so a steady mesh holds
	// them flat however many exchanges run.
	peerUp   *tsdb.Counter
	peerDown *tsdb.Counter
	// resyncs counts snapshot resyncs attempted; resyncImported sums
	// the dispatch records they brought in.
	resyncs        *tsdb.Counter
	resyncImported *tsdb.Counter
	// roundDur is the per-round wall (virtual) duration in seconds.
	roundDur *tsdb.Histogram
	// drains counts Drain calls entered; drainAborts those that timed out
	// back to serving; retired those that completed through to Stop.
	drains      *tsdb.Counter
	drainAborts *tsdb.Counter
	retired     *tsdb.Counter
	// gossipResets counts origin-log resets forced by sequence
	// regressions (an origin crashed and renumbered) — rare by design,
	// so it is an event counter rather than a round-accumulated gauge.
	gossipResets *tsdb.Counter
	// handleDur is the server-side scheduling-path duration (Query and
	// Schedule handlers, seconds). Traced requests attach their trace ID
	// as a bucket exemplar, so a p99 spike in this histogram resolves to
	// the offending request's span tree.
	handleDur *tsdb.Histogram
}

// roundDurBuckets spans the mesh-round latencies the emulated stacks
// produce: sub-second in-memory rounds up to rounds dragged out by a
// full PeerTimeout on a dead link.
var roundDurBuckets = []float64{0.1, 0.5, 1, 2, 5, 10, 30, 60}

// handleDurBuckets spans the server-side scheduling-path durations: the
// Instant profile's zero-width handlers up through a GT3-class stack
// dragging a query out past the client's 30s timeout.
var handleDurBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 30}

// observeHandle records one scheduling-path handler's duration with the
// request's trace ID as the bucket exemplar (zero for untraced calls,
// which degrades to a plain observation).
func (dp *DecisionPoint) observeHandle(start time.Time, traceID uint64) {
	dp.metrics.handleDur.ObserveTrace(dp.cfg.Clock.Now().Sub(start).Seconds(), traceID, start)
}

// registerMetrics wires the decision point's instruments and gauges
// into reg under dp/<name>/. Safe with a nil registry: GaugeFunc is a
// no-op and the returned instruments are nil (and therefore inert).
func (dp *DecisionPoint) registerMetrics(reg *tsdb.Registry) {
	p := dp.metricsPrefix()
	dp.metrics = &dpMetrics{
		peerUp:         reg.Counter(p + "mesh/peer_up"),
		peerDown:       reg.Counter(p + "mesh/peer_down"),
		resyncs:        reg.Counter(p + "mesh/resyncs"),
		resyncImported: reg.Counter(p + "mesh/resync_imported"),
		roundDur:       reg.Histogram(p+"mesh/round_s", roundDurBuckets),
		drains:         reg.Counter(p + "lifecycle/drains"),
		drainAborts:    reg.Counter(p + "lifecycle/drain_aborts"),
		retired:        reg.Counter(p + "lifecycle/retired"),
		gossipResets:   reg.Counter(p + "gossip/resets"),
		handleDur:      reg.Histogram(p+"handle_s", handleDurBuckets),
	}

	// Lifecycle gauge: 1 while draining, 0 otherwise (serving or
	// stopped — the stopped case is visible as the wire gauges zeroing).
	reg.GaugeFunc(p+"lifecycle/draining", func(now time.Time) float64 {
		if dp.isDraining() {
			return 1
		}
		return 0
	})

	// Service-stack gauges read through the DecisionPoint, not a
	// captured *wire.Server: restarts build a fresh server, and these
	// must follow it.
	type statFn struct {
		name string
		v    func(wire.Stats) float64
	}
	for _, s := range []statFn{
		{"wire/received", func(st wire.Stats) float64 { return float64(st.Received) }},
		{"wire/completed", func(st wire.Stats) float64 { return float64(st.Completed) }},
		{"wire/failed", func(st wire.Stats) float64 { return float64(st.Failed) }},
		{"wire/shed", func(st wire.Stats) float64 { return float64(st.Shed) }},
		{"wire/conn_lost", func(st wire.Stats) float64 { return float64(st.ConnLost) }},
		{"wire/expired", func(st wire.Stats) float64 { return float64(st.Expired) }},
		{"wire/inflight", func(st wire.Stats) float64 { return float64(st.InFlight) }},
		{"wire/queue", func(st wire.Stats) float64 { return float64(st.Queued) }},
		{"wire/lane_queue", func(st wire.Stats) float64 { return float64(st.LaneQueued) }},
		{"wire/lane_inflight", func(st wire.Stats) float64 { return float64(st.LaneInFlight) }},
	} {
		s := s
		reg.GaugeFunc(p+s.name, func(now time.Time) float64 { return s.v(dp.serverStats()) })
	}

	// Mesh gauges.
	reg.GaugeFunc(p+"mesh/rounds", func(now time.Time) float64 {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		return float64(dp.rounds)
	})
	reg.GaugeFunc(p+"mesh/sent_records", func(now time.Time) float64 {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		return float64(dp.sentRecs)
	})
	// round_lag_s is the time since the last completed exchange round —
	// the staleness bound the exchange interval is supposed to enforce.
	// Zero until the first round completes.
	reg.GaugeFunc(p+"mesh/round_lag_s", func(now time.Time) float64 {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		if dp.lastRound.IsZero() {
			return 0
		}
		return now.Sub(dp.lastRound).Seconds()
	})
	for _, s := range []struct {
		name  string
		state peerState
	}{
		{"mesh/peers_alive", peerAlive},
		{"mesh/peers_suspect", peerSuspect},
		{"mesh/peers_dead", peerDead},
	} {
		s := s
		reg.GaugeFunc(p+s.name, func(now time.Time) float64 {
			dp.mu.Lock()
			defer dp.mu.Unlock()
			n := 0
			for _, l := range dp.peers {
				if l.state == s.state {
					n++
				}
			}
			return float64(n)
		})
	}

	// Byte accounting. The totals read through dp.serverStats and the
	// per-method splits through dp.serverMethodIO, not a captured
	// *wire.Server or its ledger — restarts build a fresh server, and
	// these must follow it (same reason as the statFn gauges above).
	reg.GaugeFunc(p+"wire/bytes_in", func(now time.Time) float64 {
		return float64(dp.serverStats().BytesIn)
	})
	reg.GaugeFunc(p+"wire/bytes_out", func(now time.Time) float64 {
		return float64(dp.serverStats().BytesOut)
	})
	for _, m := range []string{
		MethodQuery, MethodReport, MethodSchedule,
		MethodGossip, MethodStatus, MethodSnapshot,
	} {
		m := m
		short := shortMethod(m)
		reg.GaugeFunc(p+"wire/method/"+short+"/bytes_in", func(now time.Time) float64 {
			return float64(dp.serverMethodIO(m).In)
		})
		reg.GaugeFunc(p+"wire/method/"+short+"/bytes_out", func(now time.Time) float64 {
			return float64(dp.serverMethodIO(m).Out)
		})
	}

	// Gossip gauges (flat zero series under the mesh strategies, which
	// neither pull nor relay).
	reg.GaugeFunc(p+"gossip/pulled", func(now time.Time) float64 {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		return float64(dp.gossipPulled)
	})
	reg.GaugeFunc(p+"gossip/relayed", func(now time.Time) float64 {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		return float64(dp.gossipRelayed)
	})
	reg.GaugeFunc(p+"gossip/duplicates", func(now time.Time) float64 {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		return float64(dp.gossipDuplicates)
	})
	reg.GaugeFunc(p+"gossip/view_size", func(now time.Time) float64 {
		return float64(dp.view.Len())
	})

	// Durability gauges — registered only when a write-ahead store is
	// wired, so non-durable decision points keep their series set (and
	// any snapshot consumers) unchanged.
	if dp.dur != nil {
		dur := dp.dur
		reg.GaugeFunc(p+"wal/appends", func(now time.Time) float64 {
			return float64(dur.log.Stats().Appends)
		})
		reg.GaugeFunc(p+"wal/bytes", func(now time.Time) float64 {
			return float64(dur.log.Stats().Bytes)
		})
		reg.GaugeFunc(p+"wal/checkpoints", func(now time.Time) float64 {
			return float64(dur.log.Stats().Checkpoints)
		})
		reg.GaugeFunc(p+"wal/append_errors", func(now time.Time) float64 {
			return float64(dur.log.Stats().AppendErrors)
		})
		reg.GaugeFunc(p+"wal/recovered", func(now time.Time) float64 {
			dur.mu.Lock()
			defer dur.mu.Unlock()
			return float64(dur.recovered)
		})
		reg.GaugeFunc(p+"wal/truncated", func(now time.Time) float64 {
			dur.mu.Lock()
			defer dur.mu.Unlock()
			return float64(dur.truncations)
		})
		reg.GaugeFunc(p+"wal/backfilled", func(now time.Time) float64 {
			dur.mu.Lock()
			defer dur.mu.Unlock()
			return float64(dur.backfilled)
		})
		// checkpoint_age_s is the staleness bound on replay work: how
		// long since the log was last compacted into a checkpoint. Zero
		// until the first checkpoint (recovery takes one on every Start).
		reg.GaugeFunc(p+"wal/checkpoint_age_s", func(now time.Time) float64 {
			dur.mu.Lock()
			defer dur.mu.Unlock()
			if dur.lastCheckpoint.IsZero() {
				return 0
			}
			return now.Sub(dur.lastCheckpoint).Seconds()
		})
	}

	// Engine gauges.
	reg.GaugeFunc(p+"engine/queries", func(now time.Time) float64 {
		return float64(dp.engine.Stats().Queries)
	})
	reg.GaugeFunc(p+"engine/local_dispatches", func(now time.Time) float64 {
		return float64(dp.engine.Stats().LocalDispatches)
	})
	reg.GaugeFunc(p+"engine/remote_dispatches", func(now time.Time) float64 {
		return float64(dp.engine.Stats().RemoteDispatches)
	})
	reg.GaugeFunc(p+"engine/sites", func(now time.Time) float64 {
		return float64(dp.engine.NumSites())
	})
	reg.GaugeFunc(p+"engine/view_age_max_s", func(now time.Time) float64 {
		return dp.engine.MaxViewAge(now).Seconds()
	})
	reg.GaugeFunc(p+"engine/view_age_mean_s", func(now time.Time) float64 {
		return dp.engine.MeanViewAge(now).Seconds()
	})
}

// metricsPrefix is the series-name prefix for everything this decision
// point registers or snapshots: dp/<name>/.
func (dp *DecisionPoint) metricsPrefix() string { return "dp/" + dp.cfg.Name + "/" }

// serverStats snapshots the current server's counters (zero while
// stopped).
func (dp *DecisionPoint) serverStats() wire.Stats {
	dp.mu.Lock()
	server := dp.server
	dp.mu.Unlock()
	if server == nil {
		return wire.Stats{}
	}
	return server.Stats()
}

// serverMethodIO reads one method's payload-byte totals off the current
// server (zero while stopped).
func (dp *DecisionPoint) serverMethodIO(method string) wire.IOBytes {
	dp.mu.Lock()
	server := dp.server
	dp.mu.Unlock()
	if server == nil {
		return wire.IOBytes{}
	}
	return server.MethodIO()[method]
}

// shortMethod strips the "DIGRUBER." service prefix for series names.
func shortMethod(m string) string {
	const prefix = "DIGRUBER."
	if len(m) > len(prefix) && m[:len(prefix)] == prefix {
		return m[len(prefix):]
	}
	return m
}

// peerAliveLocked marks a peer alive and counts the transition edge.
// Caller holds dp.mu.
func (dp *DecisionPoint) peerAliveLocked(l *peerLink) {
	was := l.state
	l.markAliveLocked()
	if was != peerAlive {
		dp.metrics.peerUp.Inc()
	}
}

// peerFailedLocked records a failed exchange and counts the edge out of
// alive. Caller holds dp.mu.
func (dp *DecisionPoint) peerFailedLocked(l *peerLink, now time.Time) {
	was := l.state
	l.markFailedLocked(now, dp.cfg.ExchangeInterval)
	if was == peerAlive && l.state != peerAlive {
		dp.metrics.peerDown.Inc()
	}
}

// MetricsSnapshot returns the latest value of every series under this
// decision point's prefix, for attaching to a StatusReply. Nil when no
// registry is wired or nothing has been sampled yet — keeping the gob
// frame byte-identical to a metrics-free build.
func (dp *DecisionPoint) MetricsSnapshot() []MetricSample {
	latest := dp.cfg.Metrics.LatestByPrefix(dp.metricsPrefix())
	if len(latest) == 0 {
		return nil
	}
	out := make([]MetricSample, len(latest))
	for i, nv := range latest {
		out[i] = MetricSample{Name: nv.Name, V: nv.V}
	}
	return out
}
