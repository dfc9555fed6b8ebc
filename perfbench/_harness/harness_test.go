package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeJobs keeps the self-test's runs short.
const smokeJobs = "300"

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkMetrics asserts res carries exactly the wanted metrics, each with
// its unit.
func checkMetrics(t *testing.T, label string, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", label, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestEveryMetricPrinted runs every workload at smoke size, untraced and
// traced, and checks each prints every metric BENCHMARK.json names, with
// its unit, both as a readable line and in the final JSON line.
func TestEveryMetricPrinted(t *testing.T) {
	bf := readBenchmarkFile(t)
	listed := map[string]bool{}
	for _, w := range bf.Workloads {
		listed[w.Name] = true
		if _, ok := specNamed(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not define", w.Name)
		}
	}
	for _, sp := range specs {
		for traced, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			label := fmt.Sprintf("%s --trace %d", sp.name, traced)
			var res *result
			if listed[sp.name] {
				var out, errs bytes.Buffer
				args := []string{"--workload", sp.name, "--seed", "3", "--jobs", smokeJobs,
					"--trace", fmt.Sprint(traced), "--trace-out", t.TempDir()}
				if code := run(args, &out, &errs); code != 0 {
					t.Fatalf("%s: exit %d: %s", label, code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				res = &result{}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
					t.Fatalf("%s: last line is not the result: %v", label, err)
				}
				for _, m := range want {
					if !strings.Contains(out.String(), m.Name+" ") {
						t.Errorf("%s: no readable line for %s", label, m.Name)
					}
				}
			} else {
				// A workload outside BENCHMARK.json (steady-state, whose
				// full preload takes minutes) still prints the same
				// metrics; smoke it with a tenth of the submission hosts,
				// which shrinks the preload tenfold.
				small := *sp
				small.jobs.Hosts /= 10
				opt := options{seed: 3, jobs: 300, traceDir: t.TempDir(), log: &bytes.Buffer{}}
				var err error
				if traced == 1 {
					res, err = runTraced(&small, opt)
				} else {
					res, err = runUntraced(&small, opt)
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			checkMetrics(t, label, res, want)
		}
	}
}

// TestGateFailsCorruptedRuns injects one fault into each otherwise good
// run; the correctness gate must fail every one of them.
func TestGateFailsCorruptedRuns(t *testing.T) {
	const jobs = 40
	for _, tc := range []struct {
		label, workload string
		// corrupt injects the fault.
		corrupt func(sp *spec, opt *options)
		// minFailed is how many failures the gate must count; want is
		// part of the problem it must report.
		minFailed int
		want      string
	}{
		{"foreign site", "hotpath", func(_ *spec, opt *options) { opt.selector = badSelector{} }, jobs, "is not in the grid"},
		{"foreign site", "paper-fleet", func(_ *spec, opt *options) { opt.selector = badSelector{} }, jobs, "is not in the grid"},
		// hotpath has no write-ahead log: declared durable, its decision
		// point appends nothing at all, as one whose appender was never
		// wired would.
		{"durable without appends", "hotpath", func(sp *spec, _ *options) { sp.durable = true }, 1, "WAL holds 0 appends"},
	} {
		base, _ := specNamed(tc.workload)
		sp := *base
		var log bytes.Buffer
		opt := options{seed: 1, jobs: jobs, log: &log}
		tc.corrupt(&sp, &opt)
		res, err := runUntraced(&sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed < tc.minFailed || !strings.Contains(log.String(), tc.want) {
			t.Errorf("%s on %s passed the gate: correct=%v failed=%d of %d; log:\n%s",
				tc.label, tc.workload, res.Correct, res.Failed, res.Attempted, log.String())
		}
	}
}

// TestSeedGivesIdenticalInputs checks that one seed yields a
// byte-identical job stream, topology and preload, and another seed a
// different one.
func TestSeedGivesIdenticalInputs(t *testing.T) {
	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	now := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	inputs := func(seed int64) (jobs, preload []byte) {
		sp, _ := specNamed("steady-state")
		js, err := jobStream(sp.jobs, seed, 5000)
		if err != nil {
			t.Fatal(err)
		}
		sites, err := paperGrid(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sites {
			sites[i].TotalCPUs *= steadyCapacityScale
		}
		pre, err := preloadStream(sp.jobs, seed, sites, now)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(pre); n < 148_000 || n > 149_500 {
			t.Errorf("preload holds %d dispatches, want the paper's ≈148.7k", n)
		}
		return encode(js), append(encode(sites), encode(pre)...)
	}
	j1, p1 := inputs(11)
	j2, p2 := inputs(11)
	j3, p3 := inputs(12)
	if !bytes.Equal(j1, j2) || !bytes.Equal(p1, p2) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(j1, j3) || bytes.Equal(p1, p3) {
		t.Error("different seeds gave the same inputs")
	}
}
