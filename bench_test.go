// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablation benches for the design choices
// DESIGN.md calls out and micro-benchmarks of the simulator itself.
//
// Each BenchmarkTableN / BenchmarkFigureN regenerates the corresponding
// experiment's data series (the same rows the paper plots) and reports
// its headline quantity through b.ReportMetric. Run with
//
//	go test -bench=. -benchmem
//
// Figure benches share one memoized harness, so the first bench touching
// a sweep pays for it and later ones reuse it; cmd/figures prints the
// full series.
package twolevel_test

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"twolevel/internal/analyze"
	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/figures"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/timing"
	"twolevel/internal/trace"
)

// benchRefs keeps full-figure regeneration tractable on one core while
// leaving the qualitative shapes intact.
const benchRefs = 500_000

var (
	harnessOnce  sync.Once
	benchHarness *figures.Harness
)

func figureHarness() *figures.Harness {
	harnessOnce.Do(func() {
		benchHarness = figures.NewHarness(figures.Config{Refs: benchRefs})
	})
	return benchHarness
}

// benchFigure regenerates one figure per iteration, renders it to
// io.Discard (the paper-series output path), and reports extracted
// metrics.
func benchFigure(b *testing.B, id string, metrics func(figures.Figure) map[string]float64) {
	b.Helper()
	h := figureHarness()
	// Plan this figure alone (timed): ByID would plan every figure on
	// the first benchmark's call and leave the others only pricing.
	if err := h.Plan(id); err != nil {
		b.Fatal(err)
	}
	var f figures.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = h.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := figures.Render(io.Discard, f); err != nil {
			b.Fatal(err)
		}
	}
	if metrics != nil {
		for name, v := range metrics(f) {
			b.ReportMetric(v, name)
		}
	}
	for _, n := range f.Notes {
		b.Log(n)
	}
}

// envelopeMetrics summarizes an envelope figure: the best TPI reached and
// how many two-level configurations sit on the final envelope series.
func envelopeMetrics(f figures.Figure) map[string]float64 {
	m := map[string]float64{}
	if len(f.Series) == 0 {
		return m
	}
	best := f.Series[len(f.Series)-1] // "best config" series
	if len(best.Points) == 0 {
		return m
	}
	minTPI := best.Points[0].Y
	twoLevel := 0
	for _, p := range best.Points {
		if p.Y < minTPI {
			minTPI = p.Y
		}
		if !isSingleLevelLabel(p.Label) {
			twoLevel++
		}
	}
	m["best_tpi_ns"] = minTPI
	m["twolevel_on_env"] = float64(twoLevel)
	return m
}

func isSingleLevelLabel(label string) bool {
	for i := 0; i < len(label); i++ {
		if label[i] == ':' {
			return label[i+1:] == "0"
		}
	}
	return true
}

// ---- Table 1 ----

func BenchmarkTable1References(b *testing.B) {
	benchFigure(b, "table1", func(f figures.Figure) map[string]float64 {
		return map[string]float64{"workloads": float64(len(f.Rows))}
	})
}

// ---- Figures 1-2: the time/area models ----

func BenchmarkFigure1L1Times(b *testing.B) {
	benchFigure(b, "fig1", func(f figures.Figure) map[string]float64 {
		cyc := f.Series[1].Points
		return map[string]float64{
			"cycle_1k_ns":   cyc[0].Y,
			"cycle_256k_ns": cyc[len(cyc)-1].Y,
			"spread_x":      cyc[len(cyc)-1].Y / cyc[0].Y,
		}
	})
}

func BenchmarkFigure2L2Times(b *testing.B) {
	benchFigure(b, "fig2", func(f figures.Figure) map[string]float64 {
		cycles := f.Series[2].Points
		return map[string]float64{"l2_cycles_64k": cycles[3].Y}
	})
}

// ---- Figures 3-4: single-level caching ----

func BenchmarkFigure3SingleLevel(b *testing.B) {
	benchFigure(b, "fig3", func(f figures.Figure) map[string]float64 {
		// Minimum-TPI L1 size for gcc1 (paper: between 8KB and 128KB).
		pts := f.Series[0].Points
		bestY, bestLabel := pts[0].Y, pts[0].Label
		for _, p := range pts {
			if p.Y < bestY {
				bestY, bestLabel = p.Y, p.Label
			}
		}
		kb, _ := strconv.Atoi(bestLabel[:len(bestLabel)-2])
		return map[string]float64{"gcc1_best_tpi_ns": bestY, "gcc1_best_l1_kb": float64(kb)}
	})
}

func BenchmarkFigure4SingleLevel(b *testing.B) {
	benchFigure(b, "fig4", nil)
}

// ---- Figures 5-9: baseline two-level caching ----

func BenchmarkFigure5Baseline(b *testing.B)       { benchFigure(b, "fig5", envelopeMetrics) }
func BenchmarkFigure6Baseline(b *testing.B)       { benchFigure(b, "fig6", envelopeMetrics) }
func BenchmarkFigure7Baseline(b *testing.B)       { benchFigure(b, "fig7", envelopeMetrics) }
func BenchmarkFigure8Baseline(b *testing.B)       { benchFigure(b, "fig8", envelopeMetrics) }
func BenchmarkFigure9DirectMappedL2(b *testing.B) { benchFigure(b, "fig9", envelopeMetrics) }

// ---- Figures 10-16: dual-ported first-level caches ----

func BenchmarkFigure10DualPorted(b *testing.B) { benchFigure(b, "fig10", envelopeMetrics) }
func BenchmarkFigure11DualPorted(b *testing.B) { benchFigure(b, "fig11", envelopeMetrics) }
func BenchmarkFigure12DualPorted(b *testing.B) { benchFigure(b, "fig12", envelopeMetrics) }
func BenchmarkFigure13DualPorted(b *testing.B) { benchFigure(b, "fig13", envelopeMetrics) }
func BenchmarkFigure14DualPorted(b *testing.B) { benchFigure(b, "fig14", envelopeMetrics) }
func BenchmarkFigure15DualPorted(b *testing.B) { benchFigure(b, "fig15", envelopeMetrics) }
func BenchmarkFigure16DualPorted(b *testing.B) { benchFigure(b, "fig16", envelopeMetrics) }

// ---- Figures 17-20: 200ns off-chip ----

func BenchmarkFigure17LongMiss(b *testing.B) { benchFigure(b, "fig17", envelopeMetrics) }
func BenchmarkFigure18LongMiss(b *testing.B) { benchFigure(b, "fig18", envelopeMetrics) }
func BenchmarkFigure19LongMiss(b *testing.B) { benchFigure(b, "fig19", envelopeMetrics) }
func BenchmarkFigure20LongMiss(b *testing.B) { benchFigure(b, "fig20", envelopeMetrics) }

// ---- Figure 21: exclusion vs inclusion mechanics ----

func BenchmarkFigure21ExclusionDemo(b *testing.B) {
	benchFigure(b, "fig21", func(f figures.Figure) map[string]float64 {
		return map[string]float64{"scenarios": float64(len(f.Rows))}
	})
}

// ---- Figures 22-26: two-level exclusive caching ----

func BenchmarkFigure22ExclusiveDM(b *testing.B)   { benchFigure(b, "fig22", envelopeMetrics) }
func BenchmarkFigure23Exclusive4Way(b *testing.B) { benchFigure(b, "fig23", envelopeMetrics) }
func BenchmarkFigure24Exclusive(b *testing.B)     { benchFigure(b, "fig24", envelopeMetrics) }
func BenchmarkFigure25Exclusive(b *testing.B)     { benchFigure(b, "fig25", envelopeMetrics) }
func BenchmarkFigure26Exclusive(b *testing.B)     { benchFigure(b, "fig26", envelopeMetrics) }

// ---- Ablations: design choices DESIGN.md calls out ----

// ablationPoint evaluates one gcc1 8:64 configuration variant and
// reports its TPI and global miss rate.
func ablationPoint(b *testing.B, mutate func(*core.Config), opt sweep.Options) {
	b.Helper()
	w, err := spec.ByName("gcc1")
	if err != nil {
		b.Fatal(err)
	}
	if opt.Refs == 0 {
		opt.Refs = benchRefs
	}
	line := opt.LineSize
	if line == 0 {
		line = 16
	}
	cfg := core.Config{
		L1I:    cache.Config{Size: 8 << 10, LineSize: line, Assoc: 1},
		L1D:    cache.Config{Size: 8 << 10, LineSize: line, Assoc: 1},
		L2:     cache.Config{Size: 64 << 10, LineSize: line, Assoc: 4, Policy: cache.Random},
		Policy: opt.Policy,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	var p sweep.Point
	for i := 0; i < b.N; i++ {
		p = sweep.Evaluate(w, cfg, opt)
	}
	b.ReportMetric(p.TPINS, "tpi_ns")
	b.ReportMetric(p.Stats.GlobalMissRate()*1000, "global_mr_e3")
}

// BenchmarkAblationL2Replacement compares the paper's pseudo-random L2
// replacement against LRU and FIFO at identical geometry.
func BenchmarkAblationL2Replacement(b *testing.B) {
	for _, pol := range []cache.ReplacementPolicy{cache.Random, cache.LRU, cache.FIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			ablationPoint(b, func(c *core.Config) { c.L2.Policy = pol }, sweep.Options{})
		})
	}
}

// BenchmarkAblationL2Assoc sweeps the L2 associativity (the paper uses
// 1 and 4).
func BenchmarkAblationL2Assoc(b *testing.B) {
	for _, assoc := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(assoc)+"way", func(b *testing.B) {
			ablationPoint(b, func(c *core.Config) { c.L2.Assoc = assoc },
				sweep.Options{L2Assoc: assoc})
		})
	}
}

// BenchmarkAblationPolicy compares the three two-level disciplines.
func BenchmarkAblationPolicy(b *testing.B) {
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		b.Run(pol.String(), func(b *testing.B) {
			ablationPoint(b, func(c *core.Config) { c.Policy = pol },
				sweep.Options{Policy: pol})
		})
	}
}

// BenchmarkAblationLineSize sweeps the line size (the paper fixes 16B;
// §10 future-work flavour).
func BenchmarkAblationLineSize(b *testing.B) {
	for _, line := range []int{16, 32, 64} {
		b.Run(strconv.Itoa(line)+"B", func(b *testing.B) {
			ablationPoint(b, nil, sweep.Options{LineSize: line})
		})
	}
}

// ---- Micro-benchmarks of the simulator substrate ----

func BenchmarkCacheAccessDM(b *testing.B) {
	c := cache.New(cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Addr(i*64) & 0xFFFFF)
	}
}

func BenchmarkCacheAccess4Way(b *testing.B) {
	c := cache.New(cache.Config{Size: 64 << 10, LineSize: 16, Assoc: 4, Policy: cache.Random})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Addr(i*64) & 0xFFFFF)
	}
}

func BenchmarkHierarchyAccessConventional(b *testing.B) {
	benchHierarchy(b, core.Conventional)
}

func BenchmarkHierarchyAccessExclusive(b *testing.B) {
	benchHierarchy(b, core.Exclusive)
}

func benchHierarchy(b *testing.B, pol core.Policy) {
	b.Helper()
	sys := core.NewSystem(core.Config{
		L1I:    cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1},
		L1D:    cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1},
		L2:     cache.Config{Size: 64 << 10, LineSize: 16, Assoc: 4},
		Policy: pol,
	})
	w, err := spec.ByName("gcc1")
	if err != nil {
		b.Fatal(err)
	}
	refs := trace.Collect(w.Stream(1<<16), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Access(refs[i&(1<<16-1)])
	}
}

// ---- Observability overhead ----
//
// The instrumented hot path always calls the counter methods; with no
// registry attached the counters are nil and each call is a predictable
// nil-check no-op. These benches pin both sides of that contract —
// BenchmarkCacheAccessNilRegistry must match BenchmarkCacheAccessDM
// (the pre-instrumentation baseline) and BenchmarkCacheAccessLiveRegistry
// pays only the atomic increments. BENCH_obs.json records the measured
// baseline.

func BenchmarkCacheAccessNilRegistry(b *testing.B) { benchCacheObs(b, false) }

func BenchmarkCacheAccessLiveRegistry(b *testing.B) { benchCacheObs(b, true) }

func benchCacheObs(b *testing.B, attach bool) {
	b.Helper()
	c := cache.New(cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1})
	if attach {
		c.Instrument(obs.NewRegistry(), "bench_l1")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(cache.Addr(i*64) & 0xFFFFF)
	}
}

func BenchmarkHierarchyAccessLiveRegistry(b *testing.B) {
	sys := core.NewSystem(core.Config{
		L1I:    cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1},
		L1D:    cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1},
		L2:     cache.Config{Size: 64 << 10, LineSize: 16, Assoc: 4},
		Policy: core.Conventional,
	})
	sys.Instrument(obs.NewRegistry())
	w, err := spec.ByName("gcc1")
	if err != nil {
		b.Fatal(err)
	}
	refs := trace.Collect(w.Stream(1<<16), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Access(refs[i&(1<<16-1)])
	}
}

func BenchmarkObsCounterInc(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterIncNil(b *testing.B) {
	var c *obs.Counter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench_seconds", obs.ExpBuckets(0.001, 2, 24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 0.001)
	}
}

// Span tracing follows the same nil-safety contract as the counters: an
// untraced run passes a nil tracer through every Start/Child/End call,
// and each of those must cost a nil check, not a span.

func BenchmarkObsSpanStartEndNil(b *testing.B) {
	var tr *span.Tracer
	for i := 0; i < b.N; i++ {
		s := tr.Start(nil, "bench")
		s.Child("child").End()
		s.End()
	}
}

func BenchmarkObsSpanStartEnd(b *testing.B) {
	tr := span.NewTracer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.Start(nil, "bench")
		s.End()
	}
}

func BenchmarkObsSpanChild(b *testing.B) {
	tr := span.NewTracer()
	root := tr.Start(nil, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root.Child("child", span.Attr{Key: "i", Value: "x"}).End()
	}
}

// BenchmarkObsAnalyzeShadowAccess prices the 3C/reuse-distance shadow
// per demand access (Fenwick-tree stack distance + histogram observe) —
// the cost cmd/cachesim -explain adds on top of the primary simulation.
func BenchmarkObsAnalyzeShadowAccess(b *testing.B) {
	sys := core.NewSystem(core.Config{
		L1I:    cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1},
		L1D:    cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1},
		L2:     cache.Config{Size: 64 << 10, LineSize: 16, Assoc: 4},
		Policy: core.Conventional,
	})
	analyze.Attach(sys, nil)
	w, err := spec.ByName("gcc1")
	if err != nil {
		b.Fatal(err)
	}
	refs := trace.Collect(w.Stream(1<<16), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Access(refs[i&(1<<16-1)])
	}
}

// benchScrapeRegistry fills a registry with roughly a worker's worth of
// series: the shape /metrics renders on every federation scrape.
func benchScrapeRegistry() *obs.Registry {
	r := obs.NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter("bench_counter_" + strconv.Itoa(i) + "_total").Add(uint64(i * 7))
	}
	for i := 0; i < 5; i++ {
		r.Gauge("bench_gauge_" + strconv.Itoa(i)).Set(int64(i))
	}
	for i := 0; i < 5; i++ {
		h := r.Histogram("bench_hist_"+strconv.Itoa(i)+"_seconds", obs.ExpBuckets(0.0001, 2, 24))
		for j := 0; j < 64; j++ {
			h.Observe(float64(j) * 0.001)
		}
	}
	return r
}

// BenchmarkObsPromExposition prices one Prometheus text render of a
// worker-sized registry — the marginal cost a scrape adds over the JSON
// path, paid per scrape interval, never per access.
func BenchmarkObsPromExposition(b *testing.B) {
	r := benchScrapeRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WritePrometheus(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsSLOEval prices evaluating three latency objectives against
// a snapshot: snapshot + interpolated quantile per objective.
func BenchmarkObsSLOEval(b *testing.B) {
	r := benchScrapeRegistry()
	slos, err := obs.ParseSLOs("p99:bench_hist_0_seconds:500ms,p50:bench_hist_1_seconds:2s,p99.9:bench_hist_2_seconds:1s")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := obs.EvalSLOs(slos, r.Snapshot(), nil); len(vs) != 3 {
			b.Fatal("bad verdict count")
		}
	}
}

// BenchmarkObsQuantile prices one interpolated quantile over a 24-bucket
// histogram snapshot (binary-free linear scan + interpolation).
func BenchmarkObsQuantile(b *testing.B) {
	r := benchScrapeRegistry()
	snap := r.Snapshot()
	h := snap.Histograms["bench_hist_0_seconds"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Quantile(0.99) <= 0 {
			b.Fatal("bad quantile")
		}
	}
}

func BenchmarkGenerator(b *testing.B) {
	w, err := spec.ByName("gcc1")
	if err != nil {
		b.Fatal(err)
	}
	g := trace.NewGenerator(w.Gen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkTimingOptimal(b *testing.B) {
	p := timing.Params{Size: 64 << 10, LineSize: 16, Assoc: 4, OutputBits: 64}
	for i := 0; i < b.N; i++ {
		timing.Optimal(timing.Paper05um, p)
	}
}

// ---- Extension figures (ablations + §10 future work) ----

func BenchmarkExtensionReplacement(b *testing.B)   { benchFigure(b, "extrepl", nil) }
func BenchmarkExtensionAssociativity(b *testing.B) { benchFigure(b, "extassoc", nil) }
func BenchmarkExtensionLineSize(b *testing.B)      { benchFigure(b, "extline", nil) }
func BenchmarkExtensionPolicyTraffic(b *testing.B) { benchFigure(b, "extpolicy", nil) }
func BenchmarkExtensionMulticycle(b *testing.B)    { benchFigure(b, "extmulti", nil) }

func BenchmarkExtensionMissRates(b *testing.B) { benchFigure(b, "extmr", nil) }

func BenchmarkExtensionTranslation(b *testing.B) { benchFigure(b, "exttlb", nil) }

func BenchmarkExtensionSeeds(b *testing.B) { benchFigure(b, "extseeds", nil) }

func BenchmarkExtensionBanked(b *testing.B) { benchFigure(b, "extbank", nil) }

func BenchmarkExtensionBoardCache(b *testing.B) { benchFigure(b, "extboard", nil) }

func BenchmarkExtensionWritePolicy(b *testing.B) { benchFigure(b, "extwrite", nil) }

func BenchmarkExtensionStreamBuffer(b *testing.B) { benchFigure(b, "extstream", nil) }
