package sweep

// This file shares one recorded L1 stage among the configurations of a
// RunContext or of one trace of a Plan that have the same L1 geometry
// (see core.RecordL1 and core.Replay): the L1 stage is recorded over
// the trace once, and every configuration of the group replays only its
// L1 misses against its own L2. Inclusive and write-through
// configurations, whose L1 depends on what sits below it, and
// configurations alone in their group keep the live core.System path.

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// l1PassTestHook, when non-nil, runs inside the L1 pass that builds a
// group's record (under the group lock, in the "l1-pass" span). Tests
// use it to fail or delay the attempt that builds a record.
var l1PassTestHook func(core.Config)

// Where an attempt's L1 stage came from, as its "l1" span attribute.
const (
	l1Recorded = "recorded" // this attempt built the group's record
	l1Replayed = "replayed" // another attempt had built it
	l1Live     = "live"     // simulated by a live core.System
)

// l1Group is one L1 geometry's configurations in a RunContext.
type l1Group struct {
	mu  sync.Mutex // held while the record is looked up or built
	rec *core.L1Record
	// left counts the group's configurations not yet finished; the
	// last one to finish frees the record.
	left atomic.Int32
}

// l1Key identifies an L1 group: L1Filterable configurations with equal
// keys can share one L1 record.
type l1Key struct {
	i, d   cache.Config
	writes core.WriteMode
}

func l1KeyOf(cfg core.Config) l1Key { return l1Key{cfg.L1I, cfg.L1D, cfg.Writes} }

// partitionL1 splits cfgs, by index, into L1 groups and live runs. A
// group is the core.L1Filterable configurations that share one L1
// geometry, in the order first seen, and has at least two members.
// Every other configuration runs live: it is not L1Filterable, or no
// other configuration could share its record — for one configuration a
// live core.System beats recording and replaying (about 7% faster and
// 35x less allocation on a 500k-reference trace). RunContext and
// Plan.Execute both group by this rule.
func partitionL1(cfgs []core.Config) (groups [][]int, live []int) {
	byKey := map[l1Key]int{}
	for i, cfg := range cfgs {
		if !cfg.L1Filterable() {
			continue
		}
		k := l1KeyOf(cfg)
		g, ok := byKey[k]
		if !ok {
			g = len(groups)
			byKey[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	grouped := make([]bool, len(cfgs))
	shared := groups[:0]
	for _, g := range groups {
		if len(g) > 1 {
			shared = append(shared, g)
			for _, i := range g {
				grouped[i] = true
			}
		}
	}
	for i := range cfgs {
		if !grouped[i] {
			live = append(live, i)
		}
	}
	return shared, live
}

// newL1Groups maps each configuration to its L1 group, or to nil when
// it must run live (see partitionL1).
func newL1Groups(cfgs []core.Config) []*l1Group {
	groups := make([]*l1Group, len(cfgs))
	shared, _ := partitionL1(cfgs)
	for _, members := range shared {
		g := &l1Group{}
		g.left.Store(int32(len(members)))
		for _, i := range members {
			groups[i] = g
		}
	}
	return groups
}

// stageFunc opens a stage span: RunContext opens them under an
// attempt's simulate span, Plan.Execute under its trace parent.
type stageFunc func(name string, attrs ...span.Attr) *span.Span

// record returns the group's record, building it from refs under the
// group lock and ctx in an "l1-pass" span opened by stage when no
// attempt has yet built it. A failed or panicking pass leaves no record
// behind, so the next attempt builds it again.
func (g *l1Group) record(ctx context.Context, refs []trace.Ref, cfg core.Config, stage stageFunc) (*core.L1Record, string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rec != nil {
		return g.rec, l1Replayed, nil
	}
	ps := stage("l1-pass",
		span.Attr{Key: "l1", Value: cfg.L1I.String() + "/" + cfg.L1D.String()},
		span.Attr{Key: "refs", Value: strconv.Itoa(len(refs))})
	defer ps.End()
	if l1PassTestHook != nil {
		l1PassTestHook(cfg)
	}
	rec, err := core.RecordL1(ctx, cfg, refs)
	if err != nil {
		return nil, "", err
	}
	ps.Annotate("misses", strconv.Itoa(rec.Misses()))
	g.rec = rec
	return rec, l1Recorded, nil
}

// done marks one of the group's configurations finished, freeing the
// record after the last. It is a no-op on a nil group.
func (g *l1Group) done() {
	if g != nil && g.left.Add(-1) == 0 {
		g.mu.Lock()
		g.rec = nil
		g.mu.Unlock()
	}
}

// simulateIn returns cfg's Stats over refs with the hierarchy's counters
// on reg: replayed from the group's record, built in a stage span when
// it is not yet, when cfg has a group; live otherwise. It also reports
// where the L1 stage came from.
func simulateIn(ctx context.Context, g *l1Group, refs []trace.Ref, cfg core.Config, reg *obs.Registry, stage stageFunc) (core.Stats, string, error) {
	if g == nil {
		st, err := simulate(ctx, refs, cfg, reg)
		return st, l1Live, err
	}
	rec, how, err := g.record(ctx, refs, cfg, stage)
	if err != nil {
		return core.Stats{}, "", err
	}
	st, err := core.Replay(ctx, rec, cfg, reg)
	return st, how, err
}

// lazyTrace generates a workload's trace on first use, in a "trace-gen"
// span under the span of the attempt that first needs it. A generation
// that panics leaves nothing behind, so the next use tries again.
type lazyTrace struct {
	w    spec.Workload
	n    uint64
	mu   sync.Mutex
	refs []trace.Ref // nil until generated; Collect returns non-nil for n > 0
}

func newLazyTrace(w spec.Workload, n uint64) *lazyTrace { return &lazyTrace{w: w, n: n} }

func (l *lazyTrace) get(parent *span.Span) []trace.Ref {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.refs == nil {
		gs := parent.Child("trace-gen", span.Attr{Key: "refs", Value: strconv.FormatUint(l.n, 10)})
		defer gs.End()
		l.refs = trace.Collect(l.w.Stream(l.n), l.n)
	}
	return l.refs
}
