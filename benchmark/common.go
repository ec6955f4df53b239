package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"twolevel/internal/core"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/trace"
)

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of the
// raw samples xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// seededWorkloads returns the seven spec workloads in spec.Names order.
// Seed 0 keeps the calibrated generator seeds; any other seed reseeds
// every generator, so each benchmark seed gives other inputs with the
// same calibrated distributions.
func seededWorkloads(seed int64) []spec.Workload {
	var ws []spec.Workload
	for _, name := range spec.Names() {
		w, err := spec.ByName(name)
		if err != nil {
			panic(err) // spec.Names lists only known workloads
		}
		if seed != 0 {
			w.Gen.Seed ^= uint64(seed) * 0x9E3779B97F4A7C15
			if w.Gen.Seed == 0 {
				w.Gen.Seed = 1
			}
		}
		ws = append(ws, w)
	}
	return ws
}

// pricingOptions are the option sets whose design spaces a batch
// workload prices during set-up: the paper's base system with a
// direct-mapped and a 4-way L2, with and without dual-ported L1 cells.
func pricingOptions() []sweep.Options {
	var opts []sweep.Options
	for _, assoc := range []int{1, 4} {
		for _, dual := range []bool{false, true} {
			opts = append(opts, sweep.Options{L2Assoc: assoc, DualPorted: dual})
		}
	}
	return opts
}

// priceDesignSpace prices every configuration of opts through the
// timing and area models, as a user's first sweep in a process does,
// and returns how many configurations it priced.
func priceDesignSpace(opts []sweep.Options) (int, error) {
	n := 0
	for _, opt := range opts {
		for _, cfg := range sweep.Configs(opt) {
			if _, _, err := sweep.PriceConfig(cfg, opt); err != nil {
				return n, fmt.Errorf("pricing %s: %w", sweep.Label(cfg), err)
			}
			n++
		}
	}
	return n, nil
}

// allocMeter measures allocation and GC cycles over a timed phase.
type allocMeter struct{ ms runtime.MemStats }

func startAllocMeter() *allocMeter {
	a := &allocMeter{}
	runtime.ReadMemStats(&a.ms)
	return a
}

// record stores the phase's allocated MB and GC cycles in vals, and the
// process's peak resident set so far, which leaves out the checks that
// run after the timed phase.
func (a *allocMeter) record(vals map[string]float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	vals["runtime.alloc_mb"] = float64(now.TotalAlloc-a.ms.TotalAlloc) / (1 << 20)
	vals["runtime.gc_cycles"] = float64(now.NumGC - a.ms.NumGC)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		vals["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

//go:embed golden.txt
var goldenText string

// golden returns the expected SHA-256 digest recorded under key, or ""
// when none is recorded.
func golden(key string) string {
	sc := bufio.NewScanner(strings.NewReader(goldenText))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == key {
			return f[1]
		}
	}
	return ""
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// spanStats summarizes a batch workload's program spans into vals: the
// simulate spans (count), the sweep spans, the distinct simulations and
// L1 passes the requested configurations need, and the self share of
// the traced wall time. The program emits no span around the trace
// generation each sweep starts with, so the benchmark regenerates every
// distinct stream once, under its own span, and charges each sweep that
// time; resolve maps a sweep's workload name to its generator.
func spanStats(spans []span.Data, parent *span.Span, resolve func(string) (spec.Workload, error), wall float64, vals map[string]float64) error {
	byID := make(map[uint64]span.Data, len(spans))
	for _, d := range spans {
		byID[d.ID] = d
	}
	sims, l1 := map[string]bool{}, map[string]bool{}
	type stream struct {
		workload string
		refs     uint64
	}
	streams := map[stream]int{}
	var simulations, sweeps int
	var simNS float64
	for _, d := range spans {
		switch d.Name {
		case "simulate":
			simulations++
			simNS += float64(d.EndNS - d.StartNS)
		case "sweep":
			sweeps++
			var refs uint64
			if _, err := fmt.Sscan(fingerprintField(d.Attr("fingerprint"), "refs"), &refs); err != nil {
				return fmt.Errorf("sweep span without refs: %w", err)
			}
			streams[stream{d.Attr("workload"), refs}]++
		case "config":
			sw, ok := byID[d.Parent]
			if !ok || sw.Name != "sweep" {
				continue
			}
			id, pass := simIdentity(sw.Attr("workload"), sw.Attr("fingerprint"), d.Attr("label"))
			sims[id] = true
			l1[pass] = true
		}
	}
	var genS float64
	for st, n := range streams {
		w, err := resolve(st.workload)
		if err != nil {
			return err
		}
		sp := parent.Child("trace.gen", span.Attr{Key: "workload", Value: st.workload})
		t0 := time.Now()
		trace.Collect(w.Stream(st.refs), 0)
		genS += since(t0) * float64(n)
		sp.End()
	}
	vals["sweep.simulations"] = float64(simulations)
	vals["sweep.distinct_simulations"] = float64(len(sims))
	vals["sweep.distinct_l1_passes"] = float64(len(l1))
	vals["figures.sweeps_run"] = float64(sweeps)
	vals["sweep.self_share"] = 1 - (simNS/1e9+genS)/wall
	return nil
}

// fingerprintField reads one key=value field of a sweep fingerprint
// (sweep.Options.Fingerprint renders "k=v;k=v;...").
func fingerprintField(fp, key string) string {
	for _, kv := range strings.Split(fp, ";") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// simIdentity names what a configuration's simulation depends on, and
// the L1 pass it needs. Pricing-only fields (technology, off-chip time,
// dual porting) are left out: they do not change the simulated Stats.
// Under the conventional and exclusive disciplines the split
// direct-mapped L1s behave the same whatever L2 sits behind them, so one
// L1 pass per (workload, refs, line, L1 size) serves them all; an
// inclusive L2 back-invalidates L1 lines, so each inclusive two-level
// simulation needs its own pass.
func simIdentity(workload, fp, label string) (sim, l1 string) {
	stream := workload + "|refs=" + fingerprintField(fp, "refs") + "|line=" + fingerprintField(fp, "line")
	l1Size, l2Size, _ := strings.Cut(label, ":")
	sim = stream + "|" + label
	if l2Size != "0" {
		sim += "|l2assoc=" + fingerprintField(fp, "l2assoc") + "|l2pol=" + fingerprintField(fp, "l2pol") +
			"|pol=" + fingerprintField(fp, "pol")
	}
	if l2Size != "0" && fingerprintField(fp, "pol") == core.Inclusive.String() {
		return sim, sim
	}
	return sim, stream + "|l1=" + l1Size
}

// since reports seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
