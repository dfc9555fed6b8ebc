package main

import (
	"fmt"
	"math"
	"net"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/trace"
	"digruber/internal/vtime"
	"digruber/internal/wal"
	"digruber/internal/wire"
	"digruber/internal/workload"
)

// spec is one benchmark workload: how to size its job stream, how to
// build the system it runs against, and how the load is driven.
type spec struct {
	name string
	// passJobs is the job count of one full pass, which runs on a freshly
	// built system: a fixed count, not a fixed duration, so a faster
	// commit finishes sooner instead of pushing the engine into a bigger
	// in-flight population. (hotpath's 55k jobs per pass also stay well
	// under the 100k live JobIDs at which the engine's dedup sweep
	// starts.)
	passJobs int
	// nominalRate is about the interaction rate the parent commit
	// sustained on a 2-vCPU box; it turns --seconds into a pass count.
	nominalRate float64
	// setupReps is how many times set-up runs per untraced pass; setup_s
	// is the median over all of them, and the last one of each pass is
	// measured.
	setupReps int
	// jobs configures the seeded job stream (workload.Generator).
	jobs workload.Config
	// singleCall selects the one-round-trip interaction; otherwise the
	// paper's Query → client select → Report.
	singleCall bool
	// mesh makes every pass end with one mesh round: ExchangeNow on every
	// decision point.
	mesh bool
	// durable says every decision point runs a write-ahead log; without
	// it none may.
	durable bool
	// build constructs the decision points (everything but the clients).
	build func(r *rig) error
}

// paperExchangeInterval is the paper's synchronization period, which is
// also digruber's default Config.ExchangeInterval.
const paperExchangeInterval = 3 * time.Minute

// exchangePeriodJobs is the paper's spacing of mesh rounds counted in
// interactions: its submission hosts send 120 × 1 job/s to the fleet, so
// one 3-minute exchange period holds 21,600 interactions. A full
// paper-fleet pass is exactly one such period followed by its round.
func exchangePeriodJobs(cfg workload.Config) int {
	rate := float64(cfg.Hosts) / cfg.Interarrival.Seconds()
	return int(math.Round(rate * paperExchangeInterval.Seconds()))
}

var specs = []*spec{
	{
		name:        "hotpath",
		passJobs:    55_000,
		nominalRate: 5500,
		setupReps:   15,
		jobs:        jobConfig(1, 1),
		build:       buildHotpath,
	},
	{
		name:        "paper-fleet",
		passJobs:    exchangePeriodJobs(jobConfig(10, 10)),
		nominalRate: 1300,
		setupReps:   15,
		jobs:        jobConfig(10, 10),
		mesh:        true,
		durable:     true,
		build:       buildPaperFleet,
	},
	{
		name:        "steady-state",
		passJobs:    2300,
		nominalRate: 230,
		setupReps:   1,
		jobs:        jobConfig(10, 10),
		singleCall:  true,
		build:       buildSteadyState,
	},
}

func specNamed(name string) (*spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

// jobConfig is the paper's load (120 submission hosts, lognormal
// runtimes with a 15-minute median and σ 0.8, 1-CPU jobs) over the given
// VO × group mix.
func jobConfig(vos, groups int) workload.Config {
	c := workload.Default()
	c.VOs, c.GroupsPerVO = vos, groups
	return c
}

// jobStream draws n jobs from the seeded generator, visiting the
// submission hosts round-robin, as the paper's hosts submit in turn.
func jobStream(cfg workload.Config, seed int64, n int) ([]*grid.Job, error) {
	cfg.Seed = seed
	gen := workload.NewGenerator(cfg)
	jobs := make([]*grid.Job, n)
	for k := range jobs {
		j, err := gen.NextJob(k % cfg.Hosts)
		if err != nil {
			return nil, err
		}
		jobs[k] = j
	}
	return jobs, nil
}

// paperGrid is the Grid3×10 topology (300 sites, 30k CPUs) generated
// from the run's seed.
func paperGrid(seed int64) ([]grid.Status, error) {
	cfg := grid.Grid3Times10()
	cfg.Seed = seed
	g, err := grid.Generate(cfg, vtime.NewReal())
	if err != nil {
		return nil, err
	}
	return g.Snapshot(), nil
}

// steadyCapacityScale multiplies every Grid3×10 site's CPUs for the
// steady-state workload, so its preloaded population (half the scaled
// grid) leaves every VO well under its 20% per-site upper limit and
// every decision comes from the USLA select. Scaling keeps 300 sites,
// so the per-request select work is unchanged.
const steadyCapacityScale = 10

// steadyPopulation is the paper's in-flight population by Little's law:
// 120 hosts × 1 job/s × the mean of a lognormal runtime with median m
// and σ s, which is m·exp(s²/2) (≈ 20.7 min, so ≈ 148.7k dispatches).
func steadyPopulation(cfg workload.Config) int {
	rate := float64(cfg.Hosts) / cfg.Interarrival.Seconds()
	mean := cfg.MeanRuntime.Seconds() * math.Exp(cfg.RuntimeSigma*cfg.RuntimeSigma/2)
	return int(math.Round(rate * mean))
}

// preloadStream is the steady-state in-flight population at instant
// now, derived from the run's seed. A live job of an M/G/∞ system in
// equilibrium has a length-biased runtime — for a lognormal that is the
// same lognormal scaled by exp(σ²) — and an age uniform over it, so
// records keep expiring at the arrival rate (≈ 120/s) once the clock
// runs. Owners follow the generator's host → VO/group mix, and sites are
// drawn in proportion to capacity.
func preloadStream(cfg workload.Config, seed int64, sites []grid.Status, now time.Time) ([]gruber.Dispatch, error) {
	n := steadyPopulation(cfg)
	// A seed of its own, derived from the run's, keeps the preload's
	// runtimes independent of the job stream's.
	cfg.Seed = seed ^ 0x5eed_0f_f1e1d
	gen := workload.NewGenerator(cfg)
	rng := netsim.Stream(seed, "perfbench.preload")
	cum := make([]int, len(sites))
	total := 0
	for i, s := range sites {
		total += s.TotalCPUs
		cum[i] = total
	}
	bias := math.Exp(cfg.RuntimeSigma * cfg.RuntimeSigma)
	out := make([]gruber.Dispatch, n)
	for k := range out {
		j, err := gen.NextJob(k % cfg.Hosts)
		if err != nil {
			return nil, err
		}
		runtime := time.Duration(float64(j.Runtime) * bias)
		age := time.Duration(rng.Float64() * float64(runtime))
		pick := rng.Intn(total)
		site := 0
		for cum[site] <= pick {
			site++
		}
		out[k] = gruber.Dispatch{
			JobID:   fmt.Sprintf("preload-%06d", k),
			Site:    sites[site].Name,
			Owner:   j.Owner.String(),
			CPUs:    j.CPUs,
			Runtime: runtime,
			At:      now.Add(-age),
			Origin:  "history",
		}
	}
	return out, nil
}

// rig is one built system under test: decision points, the clients
// driving them, and the probes the benchmark wrapped around them.
type rig struct {
	spec         *spec
	seed         int64
	clock        vtime.Clock
	instrumented bool // probes on; the tracer too when collector != nil

	collector *trace.Collector
	clientNet *countingTransport
	dpNet     *countingTransport
	stores    []*storeProbe

	dps       []*digruber.DecisionPoint
	clients   []*digruber.Client
	selectors []*selectProbe
	bound     []int // client index → decision point index
	sites     map[string]bool

	// selector, when set, replaces the clients' USLA-aware selector (the
	// self-test's corrupted decision).
	selector gruber.Selector
}

// numClients is the number of closed-loop client goroutines, one per
// vCPU of the box the parent was measured on.
const numClients = 2

func (r *rig) tracer(actor string) *trace.Tracer {
	if r.collector == nil {
		return nil
	}
	return trace.New(trace.Config{Actor: actor, Seed: r.seed, Clock: r.clock, Collector: r.collector})
}

// transports returns the transports for the decision points and for the
// clients, wrapped in counters when instruments are on.
func (r *rig) transports(base wire.Transport) (dps, clients wire.Transport) {
	if !r.instrumented {
		return base, base
	}
	r.dpNet = &countingTransport{Transport: base}
	r.clientNet = &countingTransport{Transport: base}
	return r.dpNet, r.clientNet
}

func (r *rig) setSites(statuses []grid.Status) {
	r.sites = make(map[string]bool, len(statuses))
	for _, s := range statuses {
		r.sites[s.Name] = true
	}
}

// startClients binds numClients clients round-robin over the first
// decision points (the fleet's dp-0 and dp-1).
func (r *rig) startClients(transport wire.Transport) error {
	for i := 0; i < numClients; i++ {
		dp := r.dps[i%len(r.dps)]
		var sel gruber.Selector = gruber.USLAAware{}
		if r.selector != nil {
			sel = r.selector
		}
		probe := &selectProbe{Selector: sel, clock: r.clock, timed: r.instrumented}
		name := fmt.Sprintf("client-%d", i)
		c, err := digruber.NewClient(digruber.ClientConfig{
			Name: name, DPName: dp.Name(), DPNode: dp.Name(), DPAddr: dp.Addr(),
			Transport: transport, Clock: r.clock, Timeout: 30 * time.Second,
			Selector:   probe,
			RNG:        netsim.Stream(r.seed, "perfbench."+name),
			SingleCall: r.spec.singleCall,
			Tracer:     r.tracer(name),
		})
		if err != nil {
			return err
		}
		r.clients = append(r.clients, c)
		r.selectors = append(r.selectors, probe)
		r.bound = append(r.bound, i%len(r.dps))
	}
	return nil
}

// close stops every client and decision point.
func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	for _, dp := range r.dps {
		dp.Stop()
	}
}

// buildHotpath: one decision point over the in-memory transport, four
// sites no run can exhaust, one VO, durability off, no peers — the
// successor of BenchmarkSchedulePath.
func buildHotpath(r *rig) error {
	r.clock = vtime.NewReal()
	dpNet, clientNet := r.transports(wire.NewMem())
	statuses := make([]grid.Status, 4)
	for i := range statuses {
		statuses[i] = grid.Status{
			Name:        fmt.Sprintf("site-%d", i),
			TotalCPUs:   100_000_000,
			FreeCPUs:    100_000_000,
			UsageByPath: map[string]int{},
		}
	}
	r.setSites(statuses)
	policies, err := workload.Policies(r.spec.jobs)
	if err != nil {
		return err
	}
	dp, err := digruber.New(digruber.Config{
		Name: "dp-0", Addr: "dp-0", Transport: dpNet, Clock: r.clock,
		Profile: wire.Instant(), Policies: policies,
		ExchangeInterval: time.Hour, Tracer: r.tracer("dp-0"),
	})
	if err != nil {
		return err
	}
	dp.Engine().UpdateSites(statuses, r.clock.Now())
	r.dps = append(r.dps, dp)
	if err := dp.Start(); err != nil {
		return err
	}
	return r.startClients(clientNet)
}

// buildPaperFleet: three decision points on the full flood mesh over TCP
// loopback, each with a write-ahead log on its own in-memory store, all
// knowing the 300-site Grid3×10 topology and the 10 VO × 10 group
// policies; the two clients bind to dp-0 and dp-1.
func buildPaperFleet(r *rig) error {
	r.clock = vtime.NewReal()
	dpNet, clientNet := r.transports(wire.TCP{})
	statuses, err := paperGrid(r.seed)
	if err != nil {
		return err
	}
	r.setSites(statuses)
	const fleet = 3
	addrs, err := freeLoopbackAddrs(fleet)
	if err != nil {
		return err
	}
	for i := 0; i < fleet; i++ {
		policies, err := workload.Policies(r.spec.jobs)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("dp-%d", i)
		var store wal.Store = wal.NewMemStore()
		if r.instrumented {
			probe := newStoreProbe(store, r.clock)
			r.stores = append(r.stores, probe)
			store = probe
		}
		dp, err := digruber.New(digruber.Config{
			Name: name, Addr: addrs[i], Transport: dpNet, Clock: r.clock,
			Profile: wire.Instant(), Policies: policies,
			ExchangeInterval: time.Hour, Strategy: digruber.UsageOnly,
			Durability: &digruber.DurabilityConfig{Store: store},
			Tracer:     r.tracer(name),
		})
		if err != nil {
			return err
		}
		dp.Engine().UpdateSites(statuses, r.clock.Now())
		r.dps = append(r.dps, dp)
	}
	for _, dp := range r.dps {
		for _, peer := range r.dps {
			dp.AddPeer(peer.Name(), peer.Name(), peer.Addr())
		}
	}
	for _, dp := range r.dps {
		if err := dp.Start(); err != nil {
			return err
		}
	}
	return r.startClients(clientNet)
}

// buildSteadyState: one decision point on the capacity-scaled Grid3×10
// topology, preloaded with the paper's steady-state in-flight population
// through Engine.ImportSnapshot, served over the in-memory transport to
// SingleCall clients.
func buildSteadyState(r *rig) error {
	clock := &pausableClock{}
	r.clock = clock
	dpNet, clientNet := r.transports(wire.NewMem())
	statuses, err := paperGrid(r.seed)
	if err != nil {
		return err
	}
	for i := range statuses {
		statuses[i].TotalCPUs *= steadyCapacityScale
		statuses[i].FreeCPUs *= steadyCapacityScale
	}
	r.setSites(statuses)
	policies, err := workload.Policies(r.spec.jobs)
	if err != nil {
		return err
	}
	dp, err := digruber.New(digruber.Config{
		Name: "dp-0", Addr: "dp-0", Transport: dpNet, Clock: r.clock,
		Profile: wire.Instant(), Policies: policies,
		ExchangeInterval: time.Hour, Tracer: r.tracer("dp-0"),
	})
	if err != nil {
		return err
	}
	r.dps = append(r.dps, dp)
	clock.Pause()
	dp.Engine().UpdateSites(statuses, clock.Now())
	preload, err := preloadStream(r.spec.jobs, r.seed, statuses, clock.Now())
	if err != nil {
		return err
	}
	imported := dp.Engine().ImportSnapshot(preload)
	clock.Resume()
	if imported != len(preload) {
		return fmt.Errorf("steady-state: imported %d of %d preload dispatches", imported, len(preload))
	}
	if err := dp.Start(); err != nil {
		return err
	}
	return r.startClients(clientNet)
}

// freeLoopbackAddrs picks n free loopback TCP addresses by binding port
// 0 and releasing it.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	defer func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}
