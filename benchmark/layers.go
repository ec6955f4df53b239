package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/model"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/service"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
	"twolevel/internal/timing"
	"twolevel/internal/trace"
)

// Probe sizes.
const (
	probeRefs    = 200_000 // references per generated or replayed stream
	probeRecords = 512     // checkpoint records and fsynced store puts
	probeMinTime = 200 * time.Millisecond
)

// layerProbe times each layer through its exported functions, in a
// fresh process so the timing model's organization memo starts cold.
// Every call sits inside a benchmark span; the spans are written as a
// Chrome trace next to the run's other artifacts.
func layerProbe(workload string, seed int64, dir string) (childOut, error) {
	out := childOut{Values: map[string]float64{}}
	v := out.Values
	tr := span.NewTracer()
	root := tr.Start(nil, "layer-probe", span.Attr{Key: "workload", Value: workload})
	ctx := context.Background()
	layer := func(name string) func() {
		sp := root.Child(name)
		return sp.End
	}

	// timing: the cold organization search, first, while the memo is
	// empty.
	end := layer("timing.search")
	geoms := pricedGeometries()
	t0 := time.Now()
	for _, p := range geoms {
		if _, err := timing.TryOptimal(timing.Paper05um, p); err != nil {
			return out, err
		}
	}
	v["timing.search_ms_per_geometry"] = since(t0) * 1e3 / float64(len(geoms))
	end()

	// sweep pricing, warm.
	end = layer("sweep.price")
	n, t0 := 0, time.Now()
	for time.Since(t0) < probeMinTime {
		k, err := priceDesignSpace(pricingOptions())
		if err != nil {
			return out, err
		}
		n += k
	}
	v["sweep.price_us_per_config"] = since(t0) * 1e6 / float64(n)
	end()

	// trace generation over every spec stream.
	end = layer("trace.gen")
	ws := seededWorkloads(seed)
	var refs []trace.Ref
	t0 = time.Now()
	for i, w := range ws {
		r := trace.Collect(w.Stream(probeRefs), 0)
		if i == 0 { // gcc1, first in Table-1 order: the recorded stream below
			refs = r
		}
	}
	v["trace.gen_ns_per_ref"] = since(t0) * 1e9 / float64(len(ws)*probeRefs)
	end()

	// the split direct-mapped L1 pair alone, over every paper L1 size.
	end = layer("cache.l1-pass")
	t0 = time.Now()
	sizes := sweep.PaperL1Sizes()
	for _, size := range sizes {
		l1i := cache.New(cache.Config{Size: size, LineSize: 16, Assoc: 1})
		l1d := cache.New(cache.Config{Size: size, LineSize: 16, Assoc: 1})
		for _, r := range refs {
			switch r.Kind {
			case trace.Instr:
				l1i.Access(cache.Addr(r.Addr))
			case trace.Write:
				l1d.AccessWrite(cache.Addr(r.Addr))
			default:
				l1d.Access(cache.Addr(r.Addr))
			}
		}
	}
	v["cache.l1_pass_ns_per_ref"] = since(t0) * 1e9 / float64(len(sizes)*len(refs))
	end()

	// the whole hierarchy per discipline: 8KB L1s over a 64KB 4-way L2.
	l1 := cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 1}
	l2 := cache.Config{Size: 64 << 10, LineSize: 16, Assoc: 4}
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"single", core.Config{L1I: l1, L1D: l1}},
		{"conventional", core.Config{L1I: l1, L1D: l1, L2: l2, Policy: core.Conventional}},
		{"exclusive", core.Config{L1I: l1, L1D: l1, L2: l2, Policy: core.Exclusive}},
		{"inclusive", core.Config{L1I: l1, L1D: l1, L2: l2, Policy: core.Inclusive}},
	} {
		end = layer("core.sim." + c.name)
		var runs []float64
		for i := 0; i < 3; i++ {
			t0 = time.Now()
			core.NewSystem(c.cfg).Run(trace.NewSliceStream(refs))
			runs = append(runs, since(t0)*1e9/float64(len(refs)))
		}
		v["core.sim_ns_per_ref."+c.name] = median(runs)
		end()
	}

	// checkpoint appends to a file journal.
	end = layer("sweep.checkpoint")
	gcc1 := ws[0]
	popt := sweep.Options{Refs: 2000}
	pt := sweep.Evaluate(gcc1, core.Config{L1I: l1, L1D: l1, L2: l2}, popt)
	ck, err := sweep.OpenCheckpointFile(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return out, err
	}
	t0 = time.Now()
	for i := 0; i < probeRecords; i++ {
		if err := ck.Record(fmt.Sprintf("probe|%d", i), pt); err != nil {
			return out, err
		}
	}
	if err := ck.Close(); err != nil {
		return out, err
	}
	v["sweep.checkpoint_us_per_record"] = since(t0) * 1e6 / probeRecords
	end()

	if err := modelProbe(ctx, ws, layer, v); err != nil {
		return out, err
	}
	if err := storeProbe(dir, pt, layer, v); err != nil {
		return out, err
	}

	// The service, store, HTTP and SSE layers under serve-mix traffic.
	sp := root.Child("serve-mix")
	so, err := serveRun(seed, filepath.Join(dir, "serve"), tr, sp)
	sp.End()
	if err != nil {
		return out, err
	}
	for k, x := range so.Values {
		v[k] = x
	}
	out.Attempted += so.Attempted
	out.Failed += so.Failed
	out.Problems = append(out.Problems, so.Problems...)
	root.End()
	return out, tr.WriteFile(filepath.Join(dir, "trace.json"))
}

// pricedGeometries lists the distinct cache geometries set-up prices:
// single- and dual-ported L1s of every paper size, and direct-mapped and
// 4-way L2s of every size an L2 takes. The fields mirror what
// sweep.PriceConfig hands the timing model.
func pricedGeometries() []timing.Params {
	seen := map[timing.Params]bool{}
	var out []timing.Params
	add := func(p timing.Params) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, opt := range pricingOptions() {
		ports := 1
		if opt.DualPorted {
			ports = 2
		}
		for _, cfg := range sweep.Configs(opt) {
			add(timing.Params{Size: cfg.L1I.Size, LineSize: cfg.L1I.LineSize, Assoc: cfg.L1I.Assoc, OutputBits: 64, Ports: ports})
			if cfg.TwoLevel() {
				add(timing.Params{Size: cfg.L2.Size, LineSize: cfg.L2.LineSize, Assoc: cfg.L2.Assoc, OutputBits: 64, Ports: 1})
			}
		}
	}
	return out
}

// modelProbe compares the analytical tier with exact simulation on the
// conventional part of design-sweep, and times its two stages.
func modelProbe(ctx context.Context, ws []spec.Workload, layer func(string) func(), v map[string]float64) error {
	opt := sweepOptions(core.Conventional)
	end := layer("model.exact-vs-fast")
	var exact, fast time.Duration
	for _, w := range ws {
		t0 := time.Now()
		if _, err := sweep.RunContext(ctx, w, opt); err != nil {
			return err
		}
		exact += time.Since(t0)
		t0 = time.Now()
		if _, err := model.RunContext(ctx, w, opt); err != nil {
			return err
		}
		fast += time.Since(t0)
	}
	v["model.exact_over_fast"] = float64(exact) / float64(fast)
	end()

	end = layer("model.profile")
	var profs []*model.Profile
	t0 := time.Now()
	for _, w := range ws {
		p, err := model.Collect(ctx, w, opt)
		if err != nil {
			return err
		}
		profs = append(profs, p)
	}
	v["model.profile_ns_per_ref"] = since(t0) * 1e9 / float64(len(ws)*sweepRefs)
	end()

	end = layer("model.predict")
	cfgs := sweep.Configs(opt)
	t0 = time.Now()
	for _, p := range profs {
		for _, cfg := range cfgs {
			if _, err := model.Predict(p, cfg, opt); err != nil {
				return err
			}
		}
	}
	v["model.predict_us_per_config"] = since(t0) * 1e6 / float64(len(profs)*len(cfgs))
	end()
	return nil
}

// storeProbe times the durable store's replay, fsynced put, the hot
// tier's hit and miss paths, and the envelope computation over the
// store's points.
func storeProbe(dir string, pt sweep.Point, layer func(string) func(), v map[string]float64) error {
	storeDir := filepath.Join(dir, "store")
	if err := seedStore(storeDir); err != nil {
		return fmt.Errorf("seeding store: %w", err)
	}
	end := layer("service.replay")
	t0 := time.Now()
	disk, err := service.OpenDiskStore(storeDir, service.DiskStoreOptions{})
	if err != nil {
		return err
	}
	v["service.replay_ms_per_kpoint"] = since(t0) * 1e3 / (float64(disk.Len()) / 1000)
	end()

	end = layer("service.store-put")
	t0 = time.Now()
	for i := 0; i < probeRecords; i++ {
		disk.Put(fmt.Sprintf("probe|%d", i), pt)
	}
	v["service.store_put_us"] = since(t0) * 1e6 / probeRecords
	end()
	if err := disk.Err(); err != nil {
		return err
	}

	hot := service.NewHotStore(disk, hotCacheSize, obs.NewRegistry())
	for _, c := range []struct {
		name string
		key  func(int) string
	}{
		{"hot", func(int) string { return "probe|0" }},
		{"miss", func(i int) string { return fmt.Sprintf("absent|%d", i) }},
	} {
		end = layer("service.store-get." + c.name)
		hot.Get(c.key(0))
		n, t0 := 0, time.Now()
		for time.Since(t0) < probeMinTime/4 {
			for i := 0; i < 1000; i++ {
				hot.Get(c.key(n + i))
			}
			n += 1000
		}
		v["service.store_get_us."+c.name] = since(t0) * 1e6 / float64(n)
		end()
	}

	end = layer("service.envelope")
	pts := hot.Points(func(p sweep.Point) bool { return p.Workload == serveWorkload })
	n, t0 := 0, time.Now()
	for time.Since(t0) < probeMinTime {
		if _, _, ok := service.EnvelopeAt(pts, 1e9); !ok {
			return fmt.Errorf("envelope over %d points is infeasible", len(pts))
		}
		n++
	}
	v["service.envelope_us"] = since(t0) * 1e6 / float64(n)
	end()
	return disk.Close()
}
