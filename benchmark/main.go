// Command benchmark measures the two-level cache study end to end and
// layer by layer, on two workloads: paper-figures and design-sweep.
// README.md in this directory explains the workloads, every metric, and
// which layer metric should move which end-to-end metric.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash benchmark/run.sh --workload paper-figures --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. Every measurement
// runs in a fresh child process of this binary, so process-global memos
// (the timing model's organization cache, the fast tier's profile cache)
// start empty, as they do when a user runs a tool.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Workload names; later changes refer to them.
const (
	wlFigures = "paper-figures"
	wlSweep   = "design-sweep"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the untraced metrics.
var endToEnd = []metricDef{{"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"mrefs_per_s", "Mref/s"}}

// perLayer lists the traced metrics, the same set on every workload.
var perLayer = []metricDef{
	{"trace.gen_ns_per_ref", "ns"},
	{"cache.l1_pass_ns_per_ref", "ns"},
	{"core.sim_ns_per_ref.single", "ns"},
	{"core.sim_ns_per_ref.conventional", "ns"},
	{"core.sim_ns_per_ref.exclusive", "ns"},
	{"core.sim_ns_per_ref.inclusive", "ns"},
	{"timing.search_ms_per_geometry", "ms"},
	{"sweep.price_us_per_config", "us"},
	{"sweep.checkpoint_us_per_record", "us"},
	{"sweep.simulations", "count"},
	{"sweep.distinct_simulations", "count"},
	{"sweep.distinct_l1_passes", "count"},
	{"sweep.self_share", "ratio"},
	{"figures.sweeps_run", "count"},
	{"model.profile_ns_per_ref", "ns"},
	{"model.predict_us_per_config", "us"},
	{"model.exact_over_fast", "ratio"},
	{"service.replay_ms_per_kpoint", "ms"},
	{"service.store_put_us", "us"},
	{"service.store_get_us.hot", "us"},
	{"service.store_get_us.miss", "us"},
	{"service.hot_hit_share", "ratio"},
	{"service.envelope_us", "us"},
	{"service.submit_ms", "ms"},
	{"service.cold_ms.p50", "ms"},
	{"service.cold_ms.p90", "ms"},
	{"service.hot_ms.p50", "ms"},
	{"service.hot_ms.p90", "ms"},
	{"service.envelope_ms.p50", "ms"},
	{"service.envelope_ms.p90", "ms"},
	{"service.sse_snapshot_ms", "ms"},
	{"loadgen.lag_ms.p99", "ms"},
	{"loadgen.lag_ms.max", "ms"},
	{"obs.trace_overhead_share", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
}

// childOut is what one child process reports on its last stdout line.
type childOut struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	// Problems describes each failed check, for standard error.
	Problems []string `json:"problems,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "paper-figures or design-sweep")
	seed := flag.Int64("seed", 0, "input seed (0 keeps the calibrated workload seeds)")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	child := flag.String("child", "", "internal: run one measurement (rep, traced or probe) in this process")
	dir := flag.String("dir", "", "internal: scratch directory of a child measurement")
	flag.Parse()

	switch *workload {
	case wlFigures, wlSweep:
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q (want %s or %s)\n", *workload, wlFigures, wlSweep)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *child != "" {
		out, err := runChild(*child, *workload, *seed, *dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		b, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	res, err := orchestrate(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printResult(res)
}

// runChild dispatches one in-process measurement.
func runChild(kind, workload string, seed int64, dir string) (childOut, error) {
	if dir == "" {
		return childOut{}, fmt.Errorf("-child needs -dir")
	}
	switch {
	case kind == "probe":
		return layerProbe(workload, seed, dir)
	case kind != "rep" && kind != "traced":
		return childOut{}, fmt.Errorf("unknown -child %q", kind)
	case workload == wlFigures:
		return figuresRep(seed, kind == "traced", dir)
	default:
		return sweepRep(seed, kind == "traced", dir)
	}
}

// childProcs is GOMAXPROCS for every child process: one thread, so the
// batch workloads run one evaluation worker and the probe's serve-mix
// client and server share one thread. On a 2-vCPU machine a gcc1 sweep
// spread 1.83–2.40 s over five runs at GOMAXPROCS=2 but only 3.65–3.76 s
// at 1.
const childProcs = 1

// tracePairs is how many untraced/traced repetition pairs a traced run
// makes; the tracing overhead is the median over the pairs.
const tracePairs = 3

// orchestrate runs the child processes of one benchmark run and
// aggregates their measurements.
func orchestrate(workload string, seed int64, dur time.Duration, traced bool) (result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	root, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	printEnv(workload)

	var outs []childOut
	run := func(kind string) (childOut, error) {
		dir := filepath.Join(root, fmt.Sprintf("%s-%d", kind, len(outs)))
		o, err := spawn(kind, workload, seed, dir)
		if err != nil {
			return o, err
		}
		outs = append(outs, o)
		// Keep a traced child's Chrome trace past the run.
		if _, serr := os.Stat(filepath.Join(dir, "trace.json")); serr == nil {
			dst := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d-%s.json", workload, seed, kind))
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return o, err
			}
			if err := os.Rename(filepath.Join(dir, "trace.json"), dst); err != nil {
				return o, err
			}
			fmt.Printf("# %s span trace: %s\n", kind, dst)
		}
		return o, nil
	}

	res := result{Metrics: map[string]metricValue{}}
	if !traced {
		var reps []childOut
		start := time.Now()
		// Repeat the fixed batch in fresh processes until the run's time
		// is spent, and report medians.
		for len(reps) == 0 || time.Since(start) < dur {
			o, err := run("rep")
			if err != nil {
				return result{}, err
			}
			reps = append(reps, o)
		}
		for _, m := range endToEnd {
			var xs []float64
			for _, o := range reps {
				xs = append(xs, o.Values[m.name])
			}
			res.Metrics[m.name] = metricValue{median(xs), m.unit}
		}
		fmt.Printf("# %d measured repetition(s), each in a fresh process\n", len(reps))
	} else {
		// Untraced and traced repetitions alternate, so machine drift
		// between them does not show as tracing overhead.
		var untraced, tr childOut
		var overheads []float64
		for i := 0; i < tracePairs; i++ {
			u, err := run("rep")
			if err != nil {
				return result{}, err
			}
			t, err := run("traced")
			if err != nil {
				return result{}, err
			}
			if i == 0 {
				untraced, tr = u, t
			}
			overheads = append(overheads, t.Values["wall_s"]/u.Values["wall_s"]-1)
		}
		probe, err := run("probe")
		if err != nil {
			return result{}, err
		}
		vals := map[string]float64{}
		for k, v := range probe.Values {
			vals[k] = v
		}
		for k, v := range tr.Values {
			vals[k] = v
		}
		vals["obs.trace_overhead_share"] = median(overheads)
		vals["runtime.alloc_mb"] = untraced.Values["runtime.alloc_mb"]
		vals["runtime.gc_cycles"] = untraced.Values["runtime.gc_cycles"]
		for _, m := range perLayer {
			v, ok := vals[m.name]
			if !ok {
				return result{}, fmt.Errorf("traced run produced no %s", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	for _, o := range outs {
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		for _, p := range o.Problems {
			fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// spawn runs one child measurement in a fresh process and decodes its
// report.
func spawn(kind, workload string, seed int64, dir string) (childOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return childOut{}, err
	}
	self, err := os.Executable()
	if err != nil {
		return childOut{}, err
	}
	cmd := exec.Command(self, "-child", kind, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-dir", dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return childOut{}, fmt.Errorf("%s %s child: %w", workload, kind, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var o childOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return childOut{}, fmt.Errorf("%s %s child: decoding report: %w", workload, kind, err)
	}
	return o, nil
}

// printEnv records what the numbers were measured on.
func printEnv(workload string) {
	fmt.Printf("# workload=%s go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		workload, runtime.Version(), cpuModel(), runtime.NumCPU(), childProcs)
}

// cpuModel names the CPU from /proc/cpuinfo, or the architecture when
// that is unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// printResult prints each metric with its unit, then the JSON line.
func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("# correct=%t attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
