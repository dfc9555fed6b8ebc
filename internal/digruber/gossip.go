package digruber

import (
	"sort"
	"sync"

	"digruber/internal/gossip"
	"digruber/internal/trace"
	"digruber/internal/wire"
)

// One round engine serves every strategy (strategy.go).
// A round sends each contacted peer the dispatch records its
// last-acknowledged version vector lacks and takes the peer's reply
// digest as the new acknowledgment; compaction then drops what every
// peer has acknowledged, plus anything expired. The strategy only shapes
// the round:
//
//   - The paper's full mesh (UsageOnly, UsageAndUSLAs): contact every
//     peer and push only this point's own records, unbounded, so one
//     round delivers everything a peer lacks. Receivers relay nothing
//     and pull nothing, keep only each origin's floor, and reply with
//     just their floor for the sender. Messages carry no digest and no
//     membership, so per-point bytes grow linearly with the fleet.
//   - Gossip: draw fanout-k peers from the membership view with a seeded
//     deterministic shuffle (gossip.View.Sample) and run a push-pull
//     exchange. Both sides advertise their full version-vector digest,
//     each ships what the other lacks (own and relayed records alike, up
//     to a batch bound), and a bounded membership sample rides along.
//     Third-party records relay transitively through the per-origin logs
//     (gruber.MergeGossip), so a sparse sampled graph still converges —
//     in O(log N) rounds with high probability — while per-point traffic
//     tracks the fanout, not the fleet size.
//   - NoExchange: no round at all, only its compaction; no peer ever
//     acknowledges, so the own log drains by expiry.

// GossipConfig tunes the Gossip dissemination strategy; zero values get
// defaults from the gossip package.
type GossipConfig struct {
	// Fanout is how many sampled peers one round contacts
	// (gossip.DefaultFanout when 0).
	Fanout int
	// ViewSize caps the active membership subset this point gossips
	// with; 0 means the whole peer set stays active. Capping bounds
	// per-point link state at very large fleets while the per-point rank
	// permutation keeps the union of subgraphs connected.
	ViewSize int
	// MaxRecords bounds the dispatch records one message carries
	// (gossip.DefaultMaxRecords when 0).
	MaxRecords int
	// Seed drives peer sampling and view ranking. Fleets replay
	// byte-identically under a Manual clock for a fixed seed.
	Seed int64
}

func (g *GossipConfig) setDefaults() {
	if g.Fanout <= 0 {
		g.Fanout = gossip.DefaultFanout
	}
	if g.MaxRecords <= 0 {
		g.MaxRecords = gossip.DefaultMaxRecords
	}
}

// selfMember describes this decision point for membership piggybacking.
func (dp *DecisionPoint) selfMember() gossip.Member {
	return gossip.Member{Name: dp.cfg.Name, Node: dp.cfg.Node, Addr: dp.cfg.Addr}
}

// gossipNow runs one round: pick the targets, push to each
// concurrently, merge the replies, then advance the compaction floor.
// force (the drain flush) contacts every known peer and ignores probe
// backoff. Returns the number of records pushed. Under NoExchange it
// only compacts: nothing is sent, traced, timed or counted as a round.
func (dp *DecisionPoint) gossipNow(force bool) int {
	if dp.cfg.Strategy == NoExchange {
		dp.compact()
		return 0
	}
	mesh := dp.cfg.Strategy != Gossip
	now := dp.cfg.Clock.Now()
	dp.mu.Lock()
	round := dp.gossipRound
	dp.gossipRound++
	dp.mu.Unlock()

	var targets []gossip.Member
	if force || mesh {
		targets = dp.view.All()
	} else {
		targets = dp.view.Sample(round, dp.cfg.Gossip.Fanout)
	}

	dp.mu.Lock()
	links := make([]*peerLink, 0, len(targets))
	for _, m := range targets {
		l := dp.peers[m.Name]
		if l == nil || l.client == nil {
			continue // removed or stopped
		}
		if !force && l.state == peerDead && now.Before(l.nextProbe) {
			continue // dead; not due for a probe yet
		}
		links = append(links, l)
	}
	timeout := dp.cfg.PeerTimeout
	dp.mu.Unlock()
	sort.Slice(links, func(i, j int) bool { return links[i].name < links[j].name })

	// The message shape every target of this round shares.
	base := GossipArgs{From: dp.cfg.Name, Round: round}
	maxRecords := 0 // the mesh must deliver everything in one round
	if mesh {
		if dp.cfg.Strategy == UsageAndUSLAs {
			base.USLAs = dp.cfg.Policies.Entries()
		}
	} else {
		// Membership piggyback: self plus this round's targets — bounded
		// by the fanout, so the payload does not grow with the fleet.
		base.Members = append([]gossip.Member{dp.selfMember()}, targets...)
		base.Digest = gossip.Cursors(dp.engine.OriginVector())
		maxRecords = dp.cfg.Gossip.MaxRecords
	}

	tr := dp.cfg.Tracer.StartTrace(trace.PhaseMeshRound)
	sent := 0
	type outcome struct {
		link  *peerLink
		span  *trace.Span
		reply GossipReply
		err   error
	}
	outcomes := make([]*outcome, 0, len(links))
	var wg sync.WaitGroup
	for _, link := range links {
		dp.mu.Lock()
		client := link.client
		ackVV := link.ackVV
		dp.mu.Unlock()
		if client == nil {
			continue // Stop raced us
		}
		// The push is diffed against this peer's last-acknowledged
		// vector; a failed or never-contacted peer has a nil vector and
		// gets everything (up to the batch bound). Under the mesh the
		// engine retains no remote records, so this is the own log only.
		args := base
		args.Records = dp.engine.DispatchesSince(ackVV, maxRecords)
		// The per-peer span (and its ID draw) happens here, in name order;
		// only the call itself runs concurrently.
		ex := dp.cfg.Tracer.StartSpan(tr.Context(), trace.PhaseMeshExchange)
		ex.SetNote(link.name)
		o := &outcome{link: link, span: ex}
		outcomes = append(outcomes, o)
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.reply, o.err = wire.CallCtx[GossipArgs, GossipReply](client, ex.Context(), MethodGossip, args, timeout)
		}()
		sent += len(args.Records)
	}
	// Only the calls run concurrently. Replies are merged after the
	// barrier, in link-name order, so a round's merges — and with them
	// the relay/duplicate accounting — are deterministic under a Manual
	// clock regardless of reply arrival order.
	wg.Wait()
	for _, o := range outcomes {
		if o.err != nil {
			o.span.End()
			dp.mu.Lock()
			dp.peerFailedLocked(o.link, dp.cfg.Clock.Now())
			dp.mu.Unlock()
			// The push is recomputed against the unchanged ackVV next time
			// this peer is contacted; the receiver's version vector makes
			// retransmission harmless.
			continue
		}
		// The pull: records the peer held that our digest lacked (none
		// under the mesh).
		st := dp.engine.MergeGossipCtx(o.span.Context(), o.link.name, o.reply.Records)
		o.span.End()
		dp.mu.Lock()
		dp.peerAliveLocked(o.link)
		// The reply digest is the peer's post-merge state: the ack basis
		// for the next push diff, for compaction, and — via its
		// self-origin entry — for the drain flush's completeness proof.
		o.link.ackVV = dp.ackedBy(o.reply.Digest)
		dp.gossipPulled += len(o.reply.Records)
		dp.gossipRelayed += st.Relayed
		dp.gossipDuplicates += st.Duplicates
		dp.mu.Unlock()
		dp.metrics.gossipResets.Add(int64(st.Resets))
	}
	tr.End()
	end := dp.cfg.Clock.Now()
	dp.metrics.roundDur.Observe(end.Sub(now).Seconds())

	dp.mu.Lock()
	dp.rounds++
	dp.sentRecs += sent
	dp.lastRound = end
	dp.mu.Unlock()
	dp.compact()
	return sent
}

// compact advances the compaction floor: for every origin this engine
// holds, the minimum sequence acknowledged across every peer —
// everything, with no peers at all. A peer never heard from has a nil
// vector and pins every origin at zero until its records expire;
// departed peers should still be removed (RemovePeer) rather than
// waited out.
func (dp *DecisionPoint) compact() {
	acked := dp.engine.OriginVector()
	dp.mu.Lock()
	for _, name := range dp.peerNamesLocked() {
		gossip.MinAcked(acked, dp.peers[name].ackVV)
	}
	dp.mu.Unlock()
	dp.engine.CompactOrigins(acked)
}

// handleGossip serves one inbound exchange: merge the push, fold any
// USLA entries, and acknowledge. A gossiping receiver also learns new
// members and replies with its post-merge digest plus the records the
// sender's digest was missing; a mesh receiver replies with just the
// floor it now holds for the sender.
func (dp *DecisionPoint) handleGossip(ctx wire.Ctx, a GossipArgs) (GossipReply, error) {
	mesh := dp.cfg.Strategy != Gossip
	// Hearing from a peer proves it is up — this is how a restarted
	// decision point's first outbound round revives its link at every
	// peer without waiting out their probe backoff.
	dp.markPeerAlive(a.From)
	for _, m := range a.Members {
		if m.Name == "" || m.Name == dp.cfg.Name {
			continue
		}
		dp.AddPeer(m.Name, m.Node, m.Addr) // no-op for known names
	}
	st := dp.engine.MergeGossipCtx(ctx.Span, a.From, a.Records)
	for _, e := range a.USLAs {
		// Under usage-and-USLAs dissemination, remote entries are folded
		// into local policy knowledge.
		if err := dp.cfg.Policies.Add(e); err != nil {
			return GossipReply{}, err
		}
	}
	// A gossip sender's digest covers everything it holds (push
	// included), so it doubles as this side's acknowledged vector for
	// that link.
	senderVV := dp.ackedBy(a.Digest)
	dp.mu.Lock()
	if l, ok := dp.peers[a.From]; ok && !mesh {
		l.ackVV = senderVV
	}
	dp.gossipRelayed += st.Relayed
	dp.gossipDuplicates += st.Duplicates
	dp.mu.Unlock()
	dp.metrics.gossipResets.Add(int64(st.Resets))
	reply := GossipReply{From: dp.cfg.Name, Stored: st.Stored}
	if mesh {
		reply.Digest = []gossip.Cursor{{Origin: a.From, Seq: dp.engine.OriginVector()[a.From]}}
		return reply, nil
	}
	// The pull: anything we hold that the sender's digest lacks. Records
	// the sender just pushed are covered by its digest, so they never
	// echo back.
	reply.Records = dp.engine.DispatchesSince(senderVV, dp.cfg.Gossip.MaxRecords)
	reply.Digest = gossip.Cursors(dp.engine.OriginVector())
	return reply, nil
}

// ackedBy reads a peer's digest as what that peer has acknowledged. An
// entry for this point's own origin above anything it has issued is a
// floor left over from an earlier incarnation: the own numbering
// restarts after a crash (only unexpired records are re-adopted), while
// a mesh receiver keeps an origin's floor indefinitely and WAL replay
// can rebuild one. Taken as an acknowledgment, it would make every push
// skip the renumbered records up to it and let the drain flush pass
// before they were sent. The entry is dropped instead, so the next push
// carries the whole own log and the peer's restart detection
// (gruber.MergeGossip) adopts the new numbering.
func (dp *DecisionPoint) ackedBy(digest []gossip.Cursor) map[string]uint64 {
	vv := gossip.Vector(digest)
	if vv[dp.cfg.Name] > dp.engine.LocalSeqHighWater() {
		delete(vv, dp.cfg.Name)
	}
	return vv
}
