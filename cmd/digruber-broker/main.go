// Command digruber-broker runs one DI-GRUBER decision point as a real
// TCP service. Point clients (cmd/digruber-client, cmd/diperf) at its
// listen address; point peer brokers at each other with -peer for the
// mesh exchange.
//
// Example three-broker mesh on one machine:
//
//	digruber-broker -name dp-0 -listen 127.0.0.1:7000 -sites sites.txt \
//	    -peer dp-1=127.0.0.1:7001 -peer dp-2=127.0.0.1:7002
//
// The site inventory file has one "name totalCPUs freeCPUs" line per
// site — the broker's complete static knowledge of grid resources.
// USLAs load from a -uslas file in the usla text format.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/tsdb"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wal"
	"digruber/internal/wire"
)

type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, ",") }
func (p *peerList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var (
		name     = flag.String("name", "dp-0", "decision point name")
		listen   = flag.String("listen", "127.0.0.1:7000", "TCP listen address")
		profile  = flag.String("profile", "gt4c", "service stack profile: gt3, gt4, gt4c, instant")
		exchange = flag.Duration("exchange", 3*time.Minute, "peer state-exchange interval")
		strategy = flag.String("strategy", "usage-only", "dissemination: usage-only, usage-and-uslas, no-exchange, gossip")
		sites    = flag.String("sites", "", "site inventory file (name totalCPUs freeCPUs per line)")
		uslas    = flag.String("uslas", "", "USLA policy file (usla text format)")
		status   = flag.Duration("status", time.Minute, "status log period (0 disables)")
		sample   = flag.Duration("sample", 15*time.Second, "metrics sampling period (0 disables the metrics plane)")
		walDir   = flag.String("wal-dir", "", "directory for the write-ahead log and checkpoints (empty disables durability)")
		ckptEvry = flag.Int("wal-checkpoint-every", 0, "checkpoint after this many WAL appends (0 = default cadence)")
	)
	var peers peerList
	flag.Var(&peers, "peer", "peer broker as name=host:port (repeatable)")
	flag.Parse()

	policies := usla.NewPolicySet()
	if *uslas != "" {
		f, err := os.Open(*uslas)
		fatalIf(err)
		entries, err := usla.ParseText(f)
		f.Close()
		fatalIf(err)
		fatalIf(policies.AddAll(entries))
		if errs := policies.Validate(); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "usla warning: %v\n", e)
			}
		}
	}

	clock := vtime.NewReal()
	var reg *tsdb.Registry
	if *sample > 0 {
		reg = tsdb.New(0)
	}
	// -wal-dir turns on the durability layer over real os files: every
	// acked dispatch is journaled before the reply, and Start replays the
	// checkpoint+log before the listener comes up.
	var durability *digruber.DurabilityConfig
	if *walDir != "" {
		store, err := wal.NewDirStore(*walDir)
		fatalIf(err)
		durability = &digruber.DurabilityConfig{Store: store, CheckpointEvery: *ckptEvry}
	}
	dp, err := digruber.New(digruber.Config{
		Name:             *name,
		Node:             *name,
		Addr:             *listen,
		Transport:        wire.TCP{},
		Clock:            clock,
		Profile:          profileByName(*profile),
		Policies:         policies,
		ExchangeInterval: *exchange,
		Strategy:         strategyByName(*strategy),
		Metrics:          reg,
		Durability:       durability,
	})
	fatalIf(err)
	if reg != nil {
		// The sampled series back the Status RPC's metrics snapshot
		// (StatusArgs.WithMetrics — what cmd/digruber-top polls).
		sampler := tsdb.NewSampler(reg, clock, *sample)
		sampler.Start()
		defer sampler.Stop()
	}

	if *sites != "" {
		statuses, err := loadSites(*sites)
		fatalIf(err)
		dp.Engine().UpdateSites(statuses, clock.Now())
		fmt.Printf("%s: loaded %d sites\n", *name, len(statuses))
	}
	for _, p := range peers {
		parts := strings.SplitN(p, "=", 2)
		if len(parts) != 2 {
			fatalIf(fmt.Errorf("bad -peer %q, want name=host:port", p))
		}
		dp.AddPeer(parts[0], parts[0], parts[1])
	}

	fatalIf(dp.Start())
	fmt.Printf("%s: listening on %s (profile %s, %s, exchange %s, %d peers)\n",
		*name, *listen, *profile, *strategy, *exchange, len(peers))
	if durability != nil {
		rec := dp.LastRecovery()
		fmt.Printf("%s: wal %s: checkpoint=%v replayed=%d truncated=%v\n",
			*name, *walDir, rec.CheckpointRestored, rec.Recovered, rec.Truncated)
		if rec.CheckpointCorrupt || rec.Truncated {
			reason := rec.TruncateReason
			if rec.CheckpointCorrupt {
				if reason == "" {
					reason = "corrupt checkpoint"
				} else {
					reason = "corrupt checkpoint; " + reason
				}
			}
			fmt.Printf("%s: wal damage detected (%s); peers listed with -peer backfill the gap\n",
				*name, reason)
		}
	}

	if *status > 0 {
		go func() {
			tk := clock.NewTicker(*status)
			defer tk.Stop()
			for range tk.C() {
				st := dp.Status()
				fmt.Printf("%s: queries=%d dispatches=%d/%d recv=%d shed=%d queued=%d rate=%.2f/s saturated=%v\n",
					st.Name, st.Queries, st.LocalDispatches, st.RemoteDispatches,
					st.Received, st.Shed, st.Queued, st.ObservedRate, st.Saturated)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("%s: shutting down\n", *name)
	dp.Stop()
}

func loadSites(path string) ([]grid.Status, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []grid.Status
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want 'name total free'", path, line)
		}
		var total, free int
		if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &total, &free); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		out = append(out, grid.Status{
			Name: fields[0], TotalCPUs: total, FreeCPUs: free,
			UsageByPath: map[string]int{},
		})
	}
	return out, sc.Err()
}

func profileByName(name string) wire.StackProfile {
	switch strings.ToLower(name) {
	case "gt3":
		return wire.GT3()
	case "gt4":
		return wire.GT4()
	case "gt4c":
		return wire.GT4C()
	case "instant":
		return wire.Instant()
	default:
		fatalIf(fmt.Errorf("unknown profile %q", name))
		return wire.StackProfile{}
	}
}

func strategyByName(name string) digruber.DisseminationStrategy {
	switch strings.ToLower(name) {
	case "usage-only":
		return digruber.UsageOnly
	case "usage-and-uslas":
		return digruber.UsageAndUSLAs
	case "no-exchange":
		return digruber.NoExchange
	case "gossip":
		return digruber.Gossip
	default:
		fatalIf(fmt.Errorf("unknown strategy %q", name))
		return digruber.UsageOnly
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "digruber-broker:", err)
		os.Exit(1)
	}
}
