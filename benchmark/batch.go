package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"twolevel/internal/core"
	"twolevel/internal/figures"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// Reduced trace lengths. EXPERIMENTS.md is generated at
// spec.DefaultRefs (2M references per configuration); these keep one
// repetition at a few seconds on one thread.
const (
	figuresRefs = 50_000
	sweepRefs   = 100_000
)

// sweepPolicies are the hierarchy disciplines design-sweep covers.
var sweepPolicies = []core.Policy{core.Conventional, core.Exclusive, core.Inclusive}

// sweepOptions is design-sweep's option set for one policy: the paper's
// sizes, a 4-way L2, 50ns off-chip, one evaluation worker.
func sweepOptions(pol core.Policy) sweep.Options {
	return sweep.Options{Policy: pol, L2Assoc: 4, OffChipNS: 50, Refs: sweepRefs, Workers: 1}
}

// newTracer returns a tracer with an open root span when traced, and
// nil (the program's no-op tracer) otherwise.
func newTracer(traced bool, workload string) (*span.Tracer, *span.Span) {
	if !traced {
		return nil, nil
	}
	tr := span.NewTracer()
	return tr, tr.Start(nil, "benchmark", span.Attr{Key: "workload", Value: workload})
}

// finishTrace summarizes the program's spans into vals, ends the root
// span and writes the Chrome trace next to the other run artifacts.
func finishTrace(tr *span.Tracer, root *span.Span, dir string, resolve func(string) (spec.Workload, error), vals map[string]float64) error {
	if tr == nil {
		return nil
	}
	if err := spanStats(tr.Snapshot(), root, resolve, vals["wall_s"], vals); err != nil {
		return err
	}
	root.End()
	return tr.WriteFile(filepath.Join(dir, "trace.json"))
}

// figuresRep renders every figure and table through one harness and
// checks each rendering against its golden digest. The harness fixes its
// inputs to the calibrated workloads, so the seed is not used.
func figuresRep(_ int64, traced bool, dir string) (childOut, error) {
	out := childOut{Values: map[string]float64{}}
	tr, root := newTracer(traced, wlFigures)

	setup := root.Child("setup")
	t0 := time.Now()
	if _, err := priceDesignSpace(pricingOptions()); err != nil {
		return out, err
	}
	out.Values["setup_s"] = since(t0)
	setup.End()

	var events bytes.Buffer
	elog := obs.NewEventLog(&events)
	timed := root.Child("timed")
	h := figures.NewHarness(figures.Config{Refs: figuresRefs, Events: elog, Trace: tr, TraceParent: timed})
	rendered := make(map[string][]byte)
	var errs []error
	meter := startAllocMeter()
	t0 = time.Now()
	for _, id := range figures.IDs() {
		fs := timed.Child("figure", span.Attr{Key: "id", Value: id})
		f, err := h.ByID(id)
		var b bytes.Buffer
		if err == nil {
			err = figures.Render(&b, f)
		}
		fs.End()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
		}
		rendered[id] = b.Bytes()
	}
	wall := since(t0)
	meter.record(out.Values)
	timed.End()
	if err := elog.Close(); err != nil {
		return out, err
	}

	evs, err := obs.ReadEvents(&events)
	if err != nil {
		return out, fmt.Errorf("reading sweep events: %w", err)
	}
	configs := 0
	for _, e := range evs {
		if e.Type == obs.EventSweepStart {
			configs += e.Total
		}
	}
	out.Values["wall_s"] = wall
	out.Values["mrefs_per_s"] = float64(configs) * figuresRefs / wall / 1e6

	for _, err := range errs {
		out.Problems = append(out.Problems, err.Error())
	}
	for _, id := range figures.IDs() {
		out.Attempted++
		want := golden(fmt.Sprintf("%s/refs=%d/%s", wlFigures, figuresRefs, id))
		if got := digest(rendered[id]); got != want {
			out.Failed++
			out.Problems = append(out.Problems, fmt.Sprintf("%s: rendering digest %s, golden %q", id, got, want))
		}
	}
	return out, finishTrace(tr, root, dir, spec.ByName, out.Values)
}

// sweepRep runs the full design space of all seven workloads under every
// policy on one worker, journaling every point to a file checkpoint, and
// checks the points.
func sweepRep(seed int64, traced bool, dir string) (childOut, error) {
	out := childOut{Values: map[string]float64{}}
	tr, root := newTracer(traced, wlSweep)
	ws := seededWorkloads(seed)
	ctx := context.Background()

	setup := root.Child("setup")
	t0 := time.Now()
	var opts []sweep.Options
	for _, pol := range sweepPolicies {
		opts = append(opts, sweepOptions(pol))
	}
	if _, err := priceDesignSpace(opts); err != nil {
		return out, err
	}
	out.Values["setup_s"] = since(t0)
	setup.End()

	timed := root.Child("timed")
	ck, err := sweep.OpenCheckpointFile(filepath.Join(dir, "design-sweep.journal"))
	if err != nil {
		return out, err
	}
	docs := make([][]sweep.Point, len(sweepPolicies))
	configs := 0
	meter := startAllocMeter()
	t0 = time.Now()
	for i, pol := range sweepPolicies {
		for _, w := range ws {
			opt := sweepOptions(pol)
			configs += len(sweep.Configs(opt))
			rs := timed.Child("run-sweep", span.Attr{Key: "workload", Value: w.Name}, span.Attr{Key: "policy", Value: pol.String()})
			opt.Checkpoint, opt.Trace, opt.TraceParent = ck, tr, rs
			pts, err := sweep.RunContext(ctx, w, opt)
			rs.End()
			if err != nil {
				out.Problems = append(out.Problems, err.Error())
			}
			docs[i] = append(docs[i], pts...)
		}
	}
	if err := ck.Close(); err != nil {
		return out, fmt.Errorf("closing checkpoint: %w", err)
	}
	wall := since(t0)
	meter.record(out.Values)
	timed.End()
	out.Values["wall_s"] = wall
	out.Values["mrefs_per_s"] = float64(configs) * sweepRefs / wall / 1e6

	out.Attempted = configs
	produced := 0
	for _, d := range docs {
		produced += len(d)
	}
	out.Failed = configs - produced
	if seed == 0 {
		checkSweepGolden(&out, docs)
	} else {
		checkSweepSample(ctx, &out, ws, docs, seed)
	}
	byName := func(name string) (spec.Workload, error) {
		for _, w := range ws {
			if w.Name == name {
				return w, nil
			}
		}
		return spec.Workload{}, fmt.Errorf("unknown workload %q", name)
	}
	return out, finishTrace(tr, root, dir, byName, out.Values)
}

// checkSweepGolden requires each policy's document to be byte-identical
// to `cmd/sweep -workload all -policy P -refs N -o` (recorded as a
// digest in golden.txt).
func checkSweepGolden(out *childOut, docs [][]sweep.Point) {
	for i, pol := range sweepPolicies {
		var b bytes.Buffer
		if err := sweep.SaveJSON(&b, docs[i]); err != nil {
			out.Failed += len(docs[i])
			out.Problems = append(out.Problems, err.Error())
			continue
		}
		want := golden(fmt.Sprintf("%s/refs=%d/%s", wlSweep, sweepRefs, pol))
		if got := digest(b.Bytes()); got != want {
			out.Failed += len(docs[i])
			out.Problems = append(out.Problems, fmt.Sprintf("%s document digest %s, golden %q", pol, got, want))
		}
	}
}

// sweepSamples is how many points per policy checkSweepSample
// re-evaluates.
const sweepSamples = 4

// checkSweepSample re-evaluates a seeded sample of each policy's points
// through a standalone sweep.Evaluator and requires byte-identical
// points.
func checkSweepSample(ctx context.Context, out *childOut, ws []spec.Workload, docs [][]sweep.Point, seed int64) {
	byName := map[string]spec.Workload{}
	for _, w := range ws {
		byName[w.Name] = w
	}
	rng := rand.New(rand.NewSource(seed))
	for i, pol := range sweepPolicies {
		if len(docs[i]) == 0 {
			continue
		}
		evals := map[string]*sweep.Evaluator{}
		for n := 0; n < sweepSamples; n++ {
			p := docs[i][rng.Intn(len(docs[i]))]
			ev := evals[p.Workload]
			if ev == nil {
				ev = sweep.NewEvaluator(byName[p.Workload], sweepOptions(pol))
				evals[p.Workload] = ev
			}
			want, err := ev.Evaluate(ctx, p.Config)
			if err == nil {
				err = samePoint(p, want)
			}
			if err != nil {
				out.Failed++
				out.Problems = append(out.Problems, fmt.Sprintf("%s %s %s: %v", pol, p.Workload, p.Label, err))
			}
		}
	}
}

// samePoint reports whether two points persist to identical bytes.
func samePoint(got, want sweep.Point) error {
	g, err := sweep.MarshalPointJSON(got)
	if err != nil {
		return err
	}
	w, err := sweep.MarshalPointJSON(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("point differs from a standalone evaluation:\n got %s\nwant %s", g, w)
	}
	return nil
}
