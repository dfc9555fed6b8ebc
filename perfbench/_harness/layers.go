package main

import (
	"fmt"
	"io"
	"time"

	"digruber/internal/trace"
)

// breakdownRows are the layers a client's Schedule latency is split
// into, in report order. Each is a sum of span self times (see layerOf);
// the last is the unattributed remainder, which takes the Exclusive
// residual, so the rows add up to the client latency by construction.
var breakdownRows = []string{
	"wire.overhead_us",
	"wire.queue_wait_us",
	"digruber.handle_self_us",
	"gruber.select_us",
	"gruber.record_us",
	"digruber.client_self_us",
	"trace.unattributed_us",
}

// layerOf maps each span name of a request trace to its breakdown row:
//   - wire.attempt self time is what the attempt spent outside the server's
//     queue and handler: frame codec, framing and the transport, both ways;
//   - server.handle self time is the handler outside the engine, which
//     includes decoding the request body and encoding the reply;
//   - the client spans' self time is the digruber client around its RPCs,
//     which includes encoding request bodies and decoding replies;
//   - client.schedule's own self time, and any span name not listed, is
//     left unattributed.
var layerOf = map[string]string{
	trace.PhaseAttempt:      "wire.overhead_us",
	trace.PhaseBackoff:      "wire.overhead_us",
	trace.PhaseWANOut:       "wire.overhead_us",
	trace.PhaseWANIn:        "wire.overhead_us",
	trace.PhaseQueue:        "wire.queue_wait_us",
	trace.PhaseHandle:       "digruber.handle_self_us",
	trace.PhaseStack:        "digruber.handle_self_us",
	trace.PhaseEngineSelect: "gruber.select_us",
	trace.PhaseEngineRecord: "gruber.record_us",
	trace.PhaseQuery:        "digruber.client_self_us",
	trace.PhaseSelect:       "digruber.client_self_us",
	trace.PhaseReport:       "digruber.client_self_us",
	trace.PhaseFallback:     "digruber.client_self_us",
}

// spanReport is the traced run reduced to per-layer numbers.
type spanReport struct {
	requests int
	// perOp holds each breakdown row as mean microseconds per request.
	perOp map[string]float64
	// latency is the mean client.schedule duration, in microseconds.
	latency float64
	phases  []trace.PhaseStat

	rpcP50, queueP99, recordP99 time.Duration
	queryMean, reportMean       float64 // µs per request
	mergeTotal                  time.Duration
	problems                    []string
}

// reduceSpans splits the request traces (client.schedule roots) into the
// breakdown rows with trace.Exclusive, summarises each phase with
// trace.PhaseBreakdown, and totals engine.merge time over the mesh
// rounds (mesh.round roots).
func reduceSpans(records []trace.Record) *spanReport {
	trees := trace.BuildTrees(records)
	reqs := trace.FilterRoots(trees, trace.PhaseSchedule)
	rounds := trace.FilterRoots(trees, trace.PhaseMeshRound)
	rep := &spanReport{requests: len(reqs), perOp: map[string]float64{}}
	if orphans := len(trees) - len(reqs) - len(rounds); orphans > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d span trees have neither a %s nor a %s root",
			orphans, trace.PhaseSchedule, trace.PhaseMeshRound))
	}
	if len(reqs) == 0 {
		rep.problems = append(rep.problems, "no request traces recorded")
		return rep
	}

	totals := map[string]time.Duration{}
	var latency time.Duration
	durs := map[string][]time.Duration{}
	for _, t := range reqs {
		excl, residual := t.Exclusive()
		for name, d := range excl {
			row, ok := layerOf[name]
			if !ok {
				row = "trace.unattributed_us"
			}
			totals[row] += d
		}
		totals["trace.unattributed_us"] += residual
		latency += t.Duration()
		collectDurations(t.Root, durs)
	}
	n := float64(len(reqs))
	for _, row := range breakdownRows {
		rep.perOp[row] = micros(totals[row]) / n
	}
	rep.latency = micros(latency) / n
	rep.phases = trace.PhaseBreakdown(reqs)

	rep.rpcP50 = percentile(sortedCopy(durs[trace.PhaseAttempt]), 0.50)
	rep.queueP99 = percentile(sortedCopy(durs[trace.PhaseQueue]), 0.99)
	rep.recordP99 = percentile(sortedCopy(durs[trace.PhaseEngineRecord]), 0.99)
	rep.queryMean = micros(total(durs[trace.PhaseQuery])) / n
	rep.reportMean = micros(total(durs[trace.PhaseReport])) / n

	mesh := map[string][]time.Duration{}
	for _, t := range rounds {
		collectDurations(t.Root, mesh)
	}
	rep.mergeTotal = total(mesh[trace.PhaseEngineMerge])
	return rep
}

// collectDurations appends every span's full duration, by name.
func collectDurations(n *trace.Node, out map[string][]time.Duration) {
	out[n.Name] = append(out[n.Name], n.Duration)
	for _, c := range n.Children {
		collectDurations(c, out)
	}
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// writeBreakdown prints the client latency split by layer, each row with
// its share, then the per-span summary trace.PhaseBreakdown gives.
func (rep *spanReport) writeBreakdown(w io.Writer, workload string) {
	fmt.Fprintf(w, "# %s: client latency %.1f us/op over %d traced requests\n", workload, rep.latency, rep.requests)
	var sum float64
	for _, row := range breakdownRows {
		v := rep.perOp[row]
		sum += v
		fmt.Fprintf(w, "#   %-26s %10.2f us  %5.1f%%\n", row, v, 100*v/rep.latency)
	}
	fmt.Fprintf(w, "#   %-26s %10.2f us\n", "sum", sum)
	fmt.Fprintf(w, "# spans (self time): %-16s %6s %10s %10s %10s\n", "name", "share", "p50_us", "p99_us", "spans")
	for _, p := range rep.phases {
		fmt.Fprintf(w, "#   %-32s %5.1f%% %10.1f %10.1f %10d\n", p.Name, 100*p.Share, micros(p.P50), micros(p.P99), p.Spans)
	}
}
