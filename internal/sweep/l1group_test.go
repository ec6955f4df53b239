package sweep

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"twolevel/internal/chaos"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/trace"
)

// groupOpt sweeps three L1 sizes over the paper's L2 range: three
// groups of 9, 8 and 7 configurations sharing an L1 geometry.
func groupOpt() Options {
	opt := smallOpt()
	opt.L1Sizes = []int64{1 << 10, 2 << 10, 4 << 10}
	opt.L2Sizes = nil
	return opt
}

// evaluateAll prices every configuration of opt point by point through
// Evaluate, the live path, sorted as RunContext sorts.
func evaluateAll(t *testing.T, opt Options) []byte {
	t.Helper()
	w := testWorkload(t)
	var pts []Point
	for _, cfg := range Configs(opt) {
		pts = append(pts, Evaluate(w, cfg, opt))
	}
	SortByArea(pts)
	return pointBytes(t, pts)
}

func withL1PassHook(t *testing.T, hook func(core.Config)) {
	t.Helper()
	l1PassTestHook = hook
	t.Cleanup(func() { l1PassTestHook = nil })
}

// TestL1FilteredSweepMatchesEvaluate: a RunContext sweep, which replays
// shared L1 records for conventional and exclusive hierarchies and runs
// inclusive ones live, is byte-identical to evaluating every point live,
// sequentially and on four workers.
func TestL1FilteredSweepMatchesEvaluate(t *testing.T) {
	w := testWorkload(t)
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		for _, assoc := range []int{1, 4} {
			opt := groupOpt()
			opt.Policy, opt.L2Assoc = pol, assoc
			want := evaluateAll(t, opt)
			for _, workers := range []int{1, 4} {
				opt.Workers = workers
				got, err := RunContext(context.Background(), w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if b := pointBytes(t, got); !bytes.Equal(b, want) {
					t.Errorf("%s %d-way, %d workers: filtered sweep differs from Evaluate\n got %s\nwant %s", pol, assoc, workers, b, want)
				}
			}
		}
	}
}

// l1Attrs counts the traced attempts by their l1 attribute.
func l1Attrs(ix spanIndex) map[string]int {
	n := map[string]int{}
	for _, a := range ix.byName["attempt"] {
		if v := a.Attr("l1"); v != "" {
			n[v]++
		}
	}
	return n
}

// TestL1FilteredSweepSpans: one simulate span per simulated attempt as
// before; one l1-pass span per shared group, nested in the simulate span
// of the attempt that recorded it; the attempts say where their L1 stage
// came from; and the one lazy trace generation appears as a trace-gen
// span under the attempt that needed it.
func TestL1FilteredSweepSpans(t *testing.T) {
	w := testWorkload(t)
	opt := groupOpt()
	opt.L1Sizes = append(opt.L1Sizes, 256<<10) // a group of one runs live
	tr := span.NewTracer()
	opt.Trace = tr
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatal(err)
	}
	ix := indexSpans(tr.Snapshot())
	total := len(Configs(opt))
	if n := len(ix.byName["simulate"]); n != total {
		t.Errorf("%d simulate spans, want %d", n, total)
	}
	want := map[string]int{l1Recorded: 3, l1Replayed: total - 4, l1Live: 1}
	if got := l1Attrs(ix); !maps.Equal(got, want) {
		t.Errorf("attempt l1 attributes = %v, want %v", got, want)
	}
	passes := ix.byName["l1-pass"]
	if len(passes) != 3 {
		t.Fatalf("%d l1-pass spans, want 3", len(passes))
	}
	for _, p := range passes {
		sim := ix.byID[p.Parent]
		if sim.Name != "simulate" || ix.byID[sim.Parent].Attr("l1") != l1Recorded {
			t.Errorf("l1-pass nests in %q of an l1=%s attempt, want simulate of l1=recorded", sim.Name, ix.byID[sim.Parent].Attr("l1"))
		}
		if p.StartNS < sim.StartNS || p.EndNS > sim.EndNS {
			t.Errorf("l1-pass [%d,%d] escapes simulate [%d,%d]", p.StartNS, p.EndNS, sim.StartNS, sim.EndNS)
		}
		if p.Attr("misses") == "" {
			t.Error("l1-pass span lacks its misses attribute")
		}
	}
	gens := ix.byName["trace-gen"]
	if len(gens) != 1 {
		t.Fatalf("%d trace-gen spans, want 1", len(gens))
	}
	if p := ix.byID[gens[0].Parent]; p.Name != "attempt" {
		t.Errorf("trace-gen parent is %q, want attempt", p.Name)
	}
}

// TestEvaluatorTraceGenSpan: the Evaluator's lazy trace also appears
// once, under the attempt of the first evaluation, which runs live.
func TestEvaluatorTraceGenSpan(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	tr := span.NewTracer()
	opt.Trace = tr
	ev := NewEvaluator(w, opt)
	for _, cfg := range Configs(opt) {
		if _, err := ev.Evaluate(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	ix := indexSpans(tr.Snapshot())
	if gens := ix.byName["trace-gen"]; len(gens) != 1 || ix.byID[gens[0].Parent].Name != "attempt" {
		t.Errorf("want one trace-gen span under an attempt, got %d", len(gens))
	}
	if got, want := l1Attrs(ix), map[string]int{l1Live: len(Configs(opt))}; !maps.Equal(got, want) {
		t.Errorf("attempt l1 attributes = %v, want %v", got, want)
	}
}

// hierarchyCounters keeps the cache- and core-level counters of a
// registry snapshot, dropping the sweep's own.
func hierarchyCounters(r *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range r.Snapshot().Counters {
		if strings.HasPrefix(k, "cache_") || strings.HasPrefix(k, "core_") {
			out[k] = v
		}
	}
	return out
}

// TestL1FilteredSweepMetricsParity: with Options.Metrics set, every
// cache_l1{i,d}_*, cache_l2_* and core_* counter of a filtered sweep
// ends at the sum of per-configuration instrumented live runs.
func TestL1FilteredSweepMetricsParity(t *testing.T) {
	w := testWorkload(t)
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		opt := groupOpt()
		opt.Policy = pol
		opt.Workers = 2
		opt.Metrics = obs.NewRegistry()
		if _, err := RunContext(context.Background(), w, opt); err != nil {
			t.Fatal(err)
		}
		refs := trace.Collect(w.Stream(opt.Refs), opt.Refs)
		live := obs.NewRegistry()
		for _, cfg := range Configs(opt) {
			sys := core.NewSystem(cfg)
			sys.Instrument(live)
			sys.Run(trace.NewSliceStream(refs))
		}
		got, want := hierarchyCounters(opt.Metrics), hierarchyCounters(live)
		if !maps.Equal(got, want) {
			t.Errorf("%s: counters after the filtered sweep differ from live runs\n got %v\nwant %v", pol, got, want)
		}
		if want["cache_l1d_dirty_writebacks_total"] == 0 || want["cache_l2_evictions_total"] == 0 {
			t.Errorf("%s: the sweep did not exercise write-backs and L2 evictions: %v", pol, want)
		}
	}
}

// TestL1PassFailureDoesNotPoisonGroup: a panic, chaos error or
// per-configuration timeout in the attempt that builds a group's record
// leaves no record behind. The retried attempt builds it again and
// every point is byte-identical to Evaluate's.
func TestL1PassFailureDoesNotPoisonGroup(t *testing.T) {
	w := testWorkload(t)
	for _, tc := range []struct {
		name string
		// inPass reports that the failure strikes inside the L1 pass
		// (so it leaves an l1-pass span) rather than before it.
		inPass bool
		inject func(t *testing.T, opt *Options)
	}{
		{"panic", true, func(t *testing.T, opt *Options) {
			var once sync.Once
			withL1PassHook(t, func(core.Config) { once.Do(func() { panic("injected in the L1 pass") }) })
		}},
		{"chaos", false, func(t *testing.T, opt *Options) {
			in := chaos.New(1)
			in.Install(chaos.Rule{Site: ChaosSiteEvaluate, Times: 1})
			opt.Chaos = in
		}},
		{"timeout", true, func(t *testing.T, opt *Options) {
			opt.Timeout = 500 * time.Millisecond
			var once sync.Once
			withL1PassHook(t, func(core.Config) { once.Do(func() { time.Sleep(opt.Timeout + 100*time.Millisecond) }) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, pol := range []core.Policy{core.Conventional, core.Exclusive} {
				opt := groupOpt()
				opt.Policy = pol
				want := evaluateAll(t, opt)
				opt.Retries = 1
				tc.inject(t, &opt)
				tr := span.NewTracer()
				opt.Trace = tr
				got, err := RunContext(context.Background(), w, opt)
				if err != nil {
					t.Fatalf("%s: %v", pol, err)
				}
				if b := pointBytes(t, got); !bytes.Equal(b, want) {
					t.Errorf("%s: points differ from Evaluate after an injected failure", pol)
				}
				ix := indexSpans(tr.Snapshot())
				passes := 3
				if tc.inPass {
					passes++
				}
				if n := len(ix.byName["l1-pass"]); n != passes {
					t.Errorf("%s: %d l1-pass spans, want %d", pol, n, passes)
				}
				retried := 0
				for _, a := range ix.byName["attempt"] {
					if a.Attr("attempt") == "2" {
						retried++
						if a.Attr("l1") != l1Recorded {
							t.Errorf("%s: the retried attempt has l1=%q, want it to rebuild the record", pol, a.Attr("l1"))
						}
					}
				}
				if retried != 1 {
					t.Errorf("%s: %d retried attempts, want 1", pol, retried)
				}
			}
		})
	}
}

// TestL1PassFailureSharedGroupOnWorkers: on four workers the other
// configurations of the failing group wait on the record; one of them
// builds it after the failure, and the sweep is still byte-identical.
func TestL1PassFailureSharedGroupOnWorkers(t *testing.T) {
	w := testWorkload(t)
	opt := groupOpt()
	opt.Policy = core.Exclusive
	want := evaluateAll(t, opt)
	opt.Workers, opt.Retries = 4, 1
	var mu sync.Mutex
	failed := map[string]bool{}
	withL1PassHook(t, func(cfg core.Config) {
		mu.Lock()
		defer mu.Unlock()
		if l := fmt.Sprint(cfg.L1I.Size); !failed[l] {
			failed[l] = true
			panic("injected in every group's first L1 pass")
		}
	})
	got, err := RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if b := pointBytes(t, got); !bytes.Equal(b, want) {
		t.Error("points differ from Evaluate after failed L1 passes on four workers")
	}
	if len(failed) != 3 {
		t.Errorf("%d groups saw a failed pass, want 3", len(failed))
	}
}

// TestL1GroupsAndRecordLifetime: only filterable configurations that
// share an L1 geometry with another get a group (single-level ones
// share across policies), and the record is freed when the group's last
// configuration finishes.
func TestL1GroupsAndRecordLifetime(t *testing.T) {
	opt := smallOpt()
	cfgs := Configs(opt)
	opt.Policy = core.Inclusive
	cfgs = append(cfgs, Configs(opt)...)
	opt.L1Sizes, opt.L2Sizes = []int64{64 << 10}, []int64{0}
	cfgs = append(cfgs, Configs(opt)...) // alone in its group
	groups := newL1Groups(cfgs)
	members := map[*l1Group][]core.Config{}
	for i, g := range groups {
		live := cfgs[i].L1I.Size == 64<<10 || (cfgs[i].TwoLevel() && cfgs[i].Policy == core.Inclusive)
		switch {
		case live && g != nil:
			t.Errorf("%s (%s) got a group", Label(cfgs[i]), cfgs[i].Policy)
		case !live && g == nil:
			t.Errorf("%s (%s) got no group", Label(cfgs[i]), cfgs[i].Policy)
		case g != nil:
			members[g] = append(members[g], cfgs[i])
		}
	}
	if len(members) != 2 {
		t.Fatalf("%d groups, want 2 (1KB and 4KB)", len(members))
	}
	refs := trace.Collect(testWorkload(t).Stream(10_000), 10_000)
	for g, cfgs := range members {
		if len(cfgs) != 3 {
			t.Errorf("group of %s has %d configurations, want 3", Label(cfgs[0]), len(cfgs))
		}
		if _, how, err := g.record(context.Background(), refs, cfgs[0], nil); err != nil || how != l1Recorded {
			t.Fatalf("first record: %q, %v", how, err)
		}
		if _, how, _ := g.record(context.Background(), refs, cfgs[0], nil); how != l1Replayed {
			t.Fatalf("second record: %q, want replayed", how)
		}
		for i := range cfgs {
			if g.rec == nil {
				t.Fatalf("record freed after %d of %d configurations", i, len(cfgs))
			}
			g.done()
		}
		if g.rec != nil {
			t.Error("record kept after the group's last configuration")
		}
	}
}
