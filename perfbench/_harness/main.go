// Command perfbench is the DI-GRUBER broker benchmark. One invocation
// runs one seeded workload against real digruber decision points and
// clients inside this process, checks every decision, and prints each
// metric by name and unit, the last line being one JSON object:
//
//	perfbench --workload hotpath --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured over as many passes
// of the workload's fixed job count as fill --seconds at the parent
// commit's rate; --trace 1 runs one untraced and one traced pass and
// prints the per-layer metrics. See ../README.md for the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// names keeps the metrics in report order for the readable lines.
	names []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, ok := r.Metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// options are one invocation's settings.
type options struct {
	seed int64
	// jobs is the job count of one pass; passes is how many passes an
	// untraced run makes, each on a freshly built system.
	jobs     int
	passes   int
	traceDir string
	// selector replaces the clients' USLA-aware selector (self-test).
	selector gruber.Selector
	log      io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hotpath, paper-fleet or steady-state")
	seed := fs.Int64("seed", 1, "seed of the job stream, topology and preload")
	seconds := fs.Float64("seconds", 30, "run length at the parent's rate: whole passes, or one shorter pass below a pass's length")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	jobs := fs.Int("jobs", 0, "job count of a single pass, overriding --seconds (smoke runs)")
	traceDir := fs.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specNamed(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --trace %d\n", *name, *traced)
		return 2
	}
	opt := options{seed: *seed, jobs: *jobs, passes: 1, traceDir: *traceDir, log: stderr}
	if opt.jobs <= 0 {
		opt.passes, opt.jobs = sizeRun(sp, *seconds)
	}

	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(sp, opt)
	} else {
		res, err = runUntraced(sp, opt)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	for _, n := range res.names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-30s %16.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// sizeRun turns a run length into whole passes of the workload's
// passJobs, counting a pass at the parent's nominal rate; a run shorter
// than one pass is a single pass of as many jobs as fit.
func sizeRun(sp *spec, seconds float64) (passes, jobs int) {
	full := float64(sp.passJobs) / sp.nominalRate
	if seconds < full {
		return 1, max(1, int(math.Round(sp.nominalRate*seconds)))
	}
	return max(1, int(math.Round(seconds/full))), sp.passJobs
}

// setUp builds one rig, returning it with its set-up time. A collection
// first keeps the garbage of earlier passes and set-ups out of the time.
func setUp(sp *spec, opt options, instrumented bool, collector *trace.Collector) (*rig, time.Duration, error) {
	r := &rig{spec: sp, seed: opt.seed, instrumented: instrumented, collector: collector, selector: opt.selector}
	runtime.GC()
	start := time.Now()
	err := sp.build(r)
	took := time.Since(start)
	if err != nil {
		r.close()
		return nil, 0, err
	}
	return r, took, nil
}

// runPhase builds a rig (setupReps times when measuring set-up, keeping
// the last), drives the seeded job stream through it, tears it down and
// checks the goroutines all ended.
func runPhase(sp *spec, opt options, reps int, instrumented bool, collector *trace.Collector) (*rig, *phase, error) {
	baseline := runtime.NumGoroutine()
	var r *rig
	var setups []float64
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
		}
		var took time.Duration
		var err error
		r, took, err = setUp(sp, opt, instrumented, collector)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
	}
	jobs, err := jobStream(sp.jobs, opt.seed, opt.jobs)
	if err != nil {
		r.close()
		return nil, nil, err
	}
	ph := r.drive(jobs)
	ph.setups = setups
	// jobs is dead from here on, so the live heap is the program's state.
	ph.heapMB = liveHeapMB()
	r.close()
	if n, ok := waitGoroutines(baseline); !ok {
		ph.failed++
		ph.problems = append(ph.problems, fmt.Sprintf("%d goroutines still running after teardown, %d before set-up", n, baseline))
	}
	for _, p := range ph.problems {
		fmt.Fprintf(opt.log, "perfbench: %s: %s\n", sp.name, p)
	}
	return r, ph, nil
}

// runUntraced measures the end-to-end metrics over opt.passes passes,
// each on a freshly built system: rates and percentiles are medians over
// every pass's segments, per-op counts are totals over all passes.
func runUntraced(sp *spec, opt options) (*result, error) {
	res := &result{}
	var tput, cpu, p50, p99, setups []float64
	var heapMB float64
	var mallocs, bytes uint64
	var wall time.Duration
	for pass := 0; pass < max(1, opt.passes); pass++ {
		_, ph, err := runPhase(sp, opt, sp.setupReps, false, nil)
		if err != nil {
			return nil, err
		}
		res.Attempted += ph.ops
		res.Failed += ph.failed
		mallocs += ph.mallocs
		bytes += ph.bytes
		wall += ph.wall
		if pass == 0 {
			// Only the first pass sees a heap of its own making: the wire
			// client's 30 s RPC timeout timers (time.After) stay live until
			// they fire, so a later pass would also count its predecessors'.
			heapMB = ph.heapMB
		}
		setups = append(setups, ph.setups...)
		for _, s := range ph.segments {
			lat := sortedCopy(s.lat)
			tput = append(tput, s.throughput())
			cpu = append(cpu, micros(s.cpu)/float64(s.ops))
			p50 = append(p50, micros(percentile(lat, 0.50)))
			p99 = append(p99, micros(percentile(lat, 0.99)))
		}
	}
	res.Correct = res.Failed == 0
	ops := float64(res.Attempted)
	res.set("throughput_ops_s", median(tput), "ops/s")
	res.set("latency_p50_us", median(p50), "us")
	res.set("latency_p99_us", median(p99), "us")
	res.set("cpu_us_per_op", median(cpu), "us")
	res.set("allocs_per_op", float64(mallocs)/ops, "count")
	res.set("alloc_bytes_per_op", float64(bytes)/ops, "B")
	res.set("heap_live_mb", heapMB, "MB")
	res.set("setup_s", median(setups), "s")
	seg := res.Attempted / len(tput)
	sortedTput := append([]float64(nil), tput...)
	sort.Float64s(sortedTput)
	fmt.Fprintf(opt.log, "perfbench: %s: segment throughput (ops/s) %.0f\n", sp.name, sortedTput)
	fmt.Fprintf(opt.log, "perfbench: %s: %d passes of %d jobs in %.2fs (%.0f ops/s overall); medians over %d segments, p99 over about %d samples each (%d beyond it); error_rate %g; set-up runs %v\n",
		sp.name, max(1, opt.passes), opt.jobs, wall.Seconds(), ops/wall.Seconds(), len(tput), seg, seg-int(math.Ceil(0.99*float64(seg))),
		float64(res.Failed)/ops, setups)
	return res, nil
}

// runTraced measures the per-layer metrics in two single passes after a
// warm-up pass: one instrumented untraced phase (transport, store and selector probes;
// runtime counters; mesh round timing) and one traced phase whose spans
// are kept in memory, written out, and reduced to per-layer self times.
// The difference in throughput between the two is the tracing overhead.
func runTraced(sp *spec, opt options) (*result, error) {
	// An unreported warm-up pass first: whichever phase ran first in the
	// process would otherwise also pay for warming the runtime (heap
	// growth, type caches), and the overhead figure would measure phase
	// order rather than tracing.
	if _, _, err := runPhase(sp, opt, 1, false, nil); err != nil {
		return nil, err
	}
	res := &result{}
	pa, err := probePhase(sp, opt, res)
	if err != nil {
		return nil, err
	}
	collector := trace.NewCollector(16*opt.jobs + 1024)
	_, pb, err := runPhase(sp, opt, 1, true, collector)
	if err != nil {
		return nil, err
	}
	var problems []string
	if d := collector.Dropped(); d > 0 {
		problems = append(problems, fmt.Sprintf("trace collector dropped %d spans", d))
	}
	if err := writeSpans(opt, sp.name, collector); err != nil {
		return nil, err
	}
	rep := reduceSpans(collector.Records())
	problems = append(problems, rep.problems...)
	if rep.requests != pb.ops {
		problems = append(problems, fmt.Sprintf("%d request traces for %d requests", rep.requests, pb.ops))
	}
	for _, p := range problems {
		fmt.Fprintf(opt.log, "perfbench: %s: %s\n", sp.name, p)
	}
	rep.writeBreakdown(opt.log, sp.name)
	res.Attempted = pa.ops + pb.ops
	res.Failed = pa.failed + pb.failed + len(problems)
	res.Correct = res.Failed == 0

	res.set("wire.rpc_us", micros(rep.rpcP50), "us")
	res.set("wire.overhead_us", rep.perOp["wire.overhead_us"], "us")
	res.set("wire.queue_wait_us", rep.perOp["wire.queue_wait_us"], "us")
	res.set("wire.queue_wait_p99_us", micros(rep.queueP99), "us")
	res.set("digruber.query_us", rep.queryMean, "us")
	res.set("digruber.report_us", rep.reportMean, "us")
	res.set("digruber.client_self_us", rep.perOp["digruber.client_self_us"], "us")
	res.set("digruber.handle_self_us", rep.perOp["digruber.handle_self_us"], "us")
	res.set("gruber.select_us", rep.perOp["gruber.select_us"], "us")
	res.set("gruber.record_us", rep.perOp["gruber.record_us"], "us")
	res.set("gruber.record_p99_us", micros(rep.recordP99), "us")
	mergePerRecord := 0.0
	if pb.sentRecs > 0 {
		mergePerRecord = micros(rep.mergeTotal) / float64(pb.sentRecs)
	}
	res.set("gruber.merge_us_per_record", mergePerRecord, "us")
	res.set("trace.latency_us", rep.latency, "us")
	res.set("trace.unattributed_us", rep.perOp["trace.unattributed_us"], "us")
	res.set("trace.overhead_frac", 1-pb.throughput()/pa.throughput(), "fraction")
	return res, nil
}

// probePhase runs the instrumented untraced phase and records the
// metrics its probes and counters give. The rig is released on return,
// so the traced phase runs on as clean a heap as this one did.
func probePhase(sp *spec, opt options, res *result) (*phase, error) {
	r, ph, err := runPhase(sp, opt, 1, true, nil)
	if err != nil {
		return nil, err
	}
	ops := float64(ph.ops)
	perOp := func(v int64) float64 { return float64(v) / ops }
	res.set("wire.client_bytes_per_op", perOp(r.clientNet.bytes()), "B")
	res.set("wire.client_writes_per_op", perOp(r.clientNet.writes.Load()), "count")

	var selectSpent time.Duration
	for _, p := range r.selectors {
		selectSpent += p.spent
	}
	res.set("digruber.client_select_us", micros(selectSpent)/ops, "us")
	res.set("gruber.live_dispatches", float64(ph.live), "count")

	rt := sortedCopy(ph.roundTimes)
	roundMax := time.Duration(0)
	if len(rt) > 0 {
		roundMax = rt[len(rt)-1]
	}
	res.set("mesh.round_ms", millis(percentile(rt, 0.50)), "ms")
	res.set("mesh.round_max_ms", millis(roundMax), "ms")
	// A pass holds at most one round, so its totals are the round's.
	res.set("mesh.records_per_round", float64(ph.sentRecs), "count")
	res.set("mesh.bytes_per_round", float64(r.dpNet.bytes()), "B")
	res.set("mesh.bytes_per_dispatch", perOp(r.dpNet.bytes()), "B")

	var walBytes, walSyncs, syncNanos int64
	var checkpoints []time.Duration
	for _, s := range r.stores {
		walBytes += s.bytes.Load()
		walSyncs += s.syncs.Load()
		syncNanos += s.syncNanos.Load()
		checkpoints = append(checkpoints, s.checkpointTimes()...)
	}
	syncUs, checkpointMs := 0.0, 0.0
	if walSyncs > 0 {
		syncUs = float64(syncNanos) / float64(walSyncs) / 1e3
	}
	if len(checkpoints) > 0 {
		checkpointMs = millis(total(checkpoints)) / float64(len(checkpoints))
	}
	res.set("wal.bytes_per_dispatch", perOp(walBytes), "B")
	res.set("wal.syncs_per_dispatch", perOp(walSyncs), "count")
	res.set("wal.sync_us", syncUs, "us")
	res.set("wal.checkpoint_ms", checkpointMs, "ms")

	gcPause := 0.0
	if ph.gcs > 0 {
		gcPause = millis(ph.gcPause) / float64(ph.gcs)
	}
	res.set("runtime.gc_cycles_per_kop", float64(ph.gcs)/ops*1000, "count")
	res.set("runtime.gc_pause_ms", gcPause, "ms")
	return ph, nil
}

// writeSpans writes the traced phase's spans as JSONL, one file per
// workload (the next traced run of the workload overwrites it).
func writeSpans(opt options, workload string, c *trace.Collector) error {
	if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(opt.traceDir, workload+".jsonl"))
	if err != nil {
		return err
	}
	if err := c.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
