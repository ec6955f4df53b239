package sweep

// This file runs a batch of simulations that was planned before any of
// it ran. A Plan holds the stats keys the batch needs and the trace jobs
// that need a raw trace, grouped by the trace they run on. Execute runs
// the plan workload-major: for each trace it generates the trace once,
// records each L1 group's L1 stage once and replays every L2 of the
// group against it, runs the configurations no record can serve live on
// the same trace, runs the trace jobs, and frees the trace before it
// moves on. At most one trace, plus one L1 record per worker, is live;
// a trace whose only work is one live configuration is streamed through
// it and never held.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// Plan is the work of a batch of evaluations, learned before any of it
// runs: the stats keys it needs, the sweeps whose points it journals and
// the trace jobs that need a raw trace. The zero Plan is empty and ready
// to use. A Plan is not safe for concurrent use while it is built.
type Plan struct {
	traces []*planTrace
	index  map[traceID]*planTrace
}

// traceID names one trace: a generator and a length.
type traceID struct {
	gen  trace.GenParams
	refs uint64
}

// planTrace is the part of a plan that runs on one trace.
type planTrace struct {
	w    spec.Workload
	refs uint64
	cfgs []core.Config // distinct stats-key configurations, in the order first added
	seen map[core.Config]bool
	// sweeps are the sweeps whose points Execute journals, in the order
	// first added; journaled dedups them by sweep key.
	sweeps    []planSweep
	journaled map[string]bool
	jobs      []TraceJob
}

// planSweep is one sweep of a plan: its journal key and defaulted
// options.
type planSweep struct {
	key string
	opt Options
}

// TraceJob is work that needs a workload's raw trace rather than a
// hierarchy's Stats, such as a simulator that is not a core.System. Run
// is called once, on a worker, with the executor's copy of the trace;
// it must not modify refs or keep it after it returns.
type TraceJob struct {
	// Name labels the job's "live" span.
	Name string
	Run  func(ctx context.Context, refs []trace.Ref) error
}

// on returns the plan's part for w's first refs references, adding it
// when the plan has none yet.
func (p *Plan) on(w spec.Workload, refs uint64) *planTrace {
	id := traceID{gen: w.Gen, refs: refs}
	if t := p.index[id]; t != nil {
		return t
	}
	if p.index == nil {
		p.index = make(map[traceID]*planTrace)
	}
	t := &planTrace{w: w, refs: refs, seen: make(map[core.Config]bool), journaled: make(map[string]bool)}
	p.index[id] = t
	p.traces = append(p.traces, t)
	return t
}

// Add adds cfg's Stats over the first refs references of w.
func (p *Plan) Add(w spec.Workload, refs uint64, cfg core.Config) {
	t := p.on(w, refs)
	k := newStatsKey(w, refs, cfg).cfg
	if !t.seen[k] {
		t.seen[k] = true
		t.cfgs = append(t.cfgs, k)
	}
}

// AddSweep adds every configuration of the sweep RunContext runs for w
// under opt, and the sweep's points for Execute to journal.
func (p *Plan) AddSweep(w spec.Workload, opt Options) {
	opt = opt.withDefaults()
	for _, cfg := range Configs(opt) {
		p.Add(w, opt.Refs, cfg)
	}
	t := p.on(w, opt.Refs)
	if key := SweepKey(w.Name, opt); !t.journaled[key] {
		t.journaled[key] = true
		t.sweeps = append(t.sweeps, planSweep{key: key, opt: opt})
	}
}

// AddTraceJob adds a job to run on the first refs references of w.
func (p *Plan) AddTraceJob(w spec.Workload, refs uint64, job TraceJob) {
	t := p.on(w, refs)
	t.jobs = append(t.jobs, job)
}

// Traces reports how many distinct traces the plan runs on.
func (p *Plan) Traces() int { return len(p.traces) }

// Keys reports how many distinct stats keys the plan holds.
func (p *Plan) Keys() int {
	n := 0
	for _, t := range p.traces {
		n += len(t.cfgs)
	}
	return n
}

// ExecOptions configures Execute. Execute runs up to GOMAXPROCS units
// of work at once; a unit is one L1 group, one live configuration or
// one trace job.
type ExecOptions struct {
	// Metrics, when non-nil, receives the cache- and core-level counters
	// of every simulated hierarchy, as under RunContext.
	Metrics *obs.Registry
	// Trace, when non-nil, receives the execution's stage spans under
	// TraceParent: trace-gen, l1-pass, replay, live and
	// checkpoint-flush.
	Trace       *span.Tracer
	TraceParent *span.Span
	// Checkpoint, when non-nil, journals the points of the plan's sweeps
	// in plan order: trace by trace, and within a trace in the order the
	// sweeps and their configurations were added.
	Checkpoint *Checkpointer
	// Resume holds points from an earlier journal. Their Stats seed the
	// memo, so their keys are not simulated, and they are not journaled
	// again.
	Resume *ResumeSet

	// workers, when positive, caps the units run at once instead of
	// GOMAXPROCS; tests set it.
	workers int
}

// Execute runs the plan and stores every key's Stats in memo, which
// must be non-nil. A key memo already holds is not simulated, and a
// trace whose keys are all held and that has no trace jobs is not
// generated. Execute returns the units' failures joined, or an error
// wrapping ctx's once ctx is done; either way memo keeps every key that
// finished.
func (p *Plan) Execute(ctx context.Context, memo *Memo, eo ExecOptions) error {
	if memo == nil {
		return errors.New("sweep: executing a plan needs a memo")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if eo.workers <= 0 {
		eo.workers = runtime.GOMAXPROCS(0)
	}
	var errs []error
	for _, t := range p.traces {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sweep: plan interrupted: %w", err)
		}
		if err := t.execute(ctx, memo, eo); err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("sweep: plan interrupted: %w", ctx.Err())
			}
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// unit is one piece of work on a trace: an L1 group (cfgs share one L1
// record), a live configuration, or a trace job.
type unit struct {
	cfgs    []core.Config
	grouped bool
	job     *TraceJob
}

// units splits the pending configurations into work units by
// partitionL1: one per L1 group, largest first (ties in the order the
// groups were added), then one per configuration that runs live, then
// one per trace job.
func (t *planTrace) units(pending []core.Config) []unit {
	groups, live := partitionL1(pending)
	var out []unit
	for _, g := range groups {
		u := unit{grouped: true}
		for _, i := range g {
			u.cfgs = append(u.cfgs, pending[i])
		}
		out = append(out, u)
	}
	sort.SliceStable(out, func(a, b int) bool { return len(out[a].cfgs) > len(out[b].cfgs) })
	for _, i := range live {
		out = append(out, unit{cfgs: pending[i : i+1]})
	}
	for i := range t.jobs {
		out = append(out, unit{job: &t.jobs[i]})
	}
	return out
}

// execute runs one trace's part of the plan.
func (t *planTrace) execute(ctx context.Context, memo *Memo, eo ExecOptions) error {
	// Resumed points seed the memo, so their keys are not simulated.
	for _, s := range t.sweeps {
		resumed := eo.Resume.forKey(s.key)
		for _, cfg := range Configs(s.opt) {
			if pt, ok := resumed[Label(cfg)]; ok {
				memo.store(newStatsKey(t.w, t.refs, cfg), pt.Stats)
			}
		}
	}
	j := t.newJournal(eo)
	var pending []core.Config
	for _, cfg := range t.cfgs {
		if _, ok := memo.get(newStatsKey(t.w, t.refs, cfg)); !ok {
			pending = append(pending, cfg)
		}
	}
	if len(pending) == 0 && len(t.jobs) == 0 {
		return j.flush(memo, true)
	}

	units := t.units(pending)
	stage := t.stage(eo)
	if len(units) == 1 && units[0].job == nil && !units[0].grouped {
		// A lone live configuration streams the generator through its
		// hierarchy instead of holding the trace, so evaluating one key
		// costs constant memory whatever the trace length.
		cfg := units[0].cfgs[0]
		sp := stage("live", span.Attr{Key: "config", Value: cfg.String()}, span.Attr{Key: "streamed", Value: "true"})
		st, err := simulateStream(ctx, t.w.Stream(t.refs), cfg, eo.Metrics)
		sp.End()
		if err == nil {
			memo.store(newStatsKey(t.w, t.refs, cfg), st)
		} else {
			err = fmt.Errorf("sweep: %s on %s: %w", cfg, t.w.Name, err)
		}
		return errors.Join(err, j.flush(memo, true))
	}

	gs := stage("trace-gen", span.Attr{Key: "refs", Value: strconv.FormatUint(t.refs, 10)})
	refs := trace.Collect(t.w.Stream(t.refs), t.refs)
	gs.End()

	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	work := make(chan unit)
	for n := 0; n < min(eo.workers, len(units)); n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				err := t.run(ctx, u, refs, memo, eo)
				if err == nil {
					err = j.flush(memo, false)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for _, u := range units {
		select {
		case work <- u:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	// Whatever finished is journaled, even past a failed key, so an
	// interrupted run keeps all the work it did.
	if err := j.flush(memo, true); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// stage opens the trace's stage spans under eo.TraceParent, tagged with
// the trace's workload and generator seed (a reseeded workload keeps
// its name).
func (t *planTrace) stage(eo ExecOptions) stageFunc {
	return func(name string, attrs ...span.Attr) *span.Span {
		return eo.Trace.Start(eo.TraceParent, name, append([]span.Attr{
			{Key: "workload", Value: t.w.Name},
			{Key: "seed", Value: fmt.Sprintf("%#x", t.w.Gen.Seed)},
		}, attrs...)...)
	}
}

// run executes one unit on refs and stores its Stats in memo. A group
// records its L1 stage once, then replays each configuration.
func (t *planTrace) run(ctx context.Context, u unit, refs []trace.Ref, memo *Memo, eo ExecOptions) error {
	stage := t.stage(eo)
	if u.job != nil {
		sp := stage("live", span.Attr{Key: "job", Value: u.job.Name})
		defer sp.End()
		if err := u.job.Run(ctx, refs); err != nil {
			return fmt.Errorf("sweep: %s on %s: %w", u.job.Name, t.w.Name, err)
		}
		return nil
	}
	var g *l1Group
	name := "live"
	if u.grouped {
		g, name = &l1Group{}, "replay"
		if _, _, err := g.record(ctx, refs, u.cfgs[0], stage); err != nil {
			return fmt.Errorf("sweep: L1 pass of %s on %s: %w", u.cfgs[0], t.w.Name, err)
		}
	}
	for _, cfg := range u.cfgs {
		sp := stage(name, span.Attr{Key: "config", Value: cfg.String()})
		st, _, err := simulateIn(ctx, g, refs, cfg, eo.Metrics, stage)
		sp.End()
		if err != nil {
			return fmt.Errorf("sweep: %s on %s: %w", cfg, t.w.Name, err)
		}
		memo.store(newStatsKey(t.w, t.refs, cfg), st)
	}
	return nil
}

// planJournal writes one trace's sweep points to the checkpoint in plan
// order, as their Stats arrive in the memo.
type planJournal struct {
	t       *planTrace
	eo      ExecOptions
	mu      sync.Mutex
	entries []journalItem
	next    int
}

type journalItem struct {
	sweep planSweep
	cfg   core.Config
}

// newJournal lists the trace's sweep points that a checkpoint must
// record: every point of every sweep, in plan order, except the resumed
// ones.
func (t *planTrace) newJournal(eo ExecOptions) *planJournal {
	j := &planJournal{t: t, eo: eo}
	if eo.Checkpoint == nil {
		return j
	}
	for _, s := range t.sweeps {
		resumed := eo.Resume.forKey(s.key)
		for _, cfg := range Configs(s.opt) {
			if _, ok := resumed[Label(cfg)]; !ok {
				j.entries = append(j.entries, journalItem{sweep: s, cfg: cfg})
			}
		}
	}
	return j
}

// flush records the ready prefix of the remaining points: those whose
// Stats the memo holds, up to the first that it does not. With all set
// it records every remaining point the memo holds and skips the rest,
// which no later flush will reach.
func (j *planJournal) flush(memo *Memo, all bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var fl *span.Span
	written := 0
	var errs []error
	for ; j.next < len(j.entries); j.next++ {
		e := j.entries[j.next]
		st, ok := memo.get(newStatsKey(j.t.w, j.t.refs, e.cfg))
		if !ok {
			if all {
				continue
			}
			break
		}
		if fl == nil {
			fl = j.t.stage(j.eo)("checkpoint-flush")
		}
		p, err := priceStats(e.cfg, e.sweep.opt, st)
		if err == nil {
			p.Workload = j.t.w.Name
			err = j.eo.Checkpoint.Record(e.sweep.key, p)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("sweep: checkpointing %s: %w", Label(e.cfg), err))
			continue
		}
		written++
	}
	if fl != nil {
		fl.Annotate("points", strconv.Itoa(written))
		fl.End()
	}
	return errors.Join(errs...)
}
