package sweep

// This file shares one recorded L1 stage among the pending
// configurations of a RunContext that have the same L1 geometry (see
// core.RecordL1 and core.Replay): the first attempt that must simulate
// such a configuration records the L1 stage over the trace, and every
// configuration of the group replays only its L1 misses against its own
// L2. Inclusive and write-through configurations, whose L1 depends on
// what sits below it, keep the live core.System path.

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

// newL1Groups maps each configuration to its L1 group, or to nil when
// it must run live: it is not core.L1Filterable, or no other
// configuration could share its record.
func newL1Groups(cfgs []core.Config) []*l1Group {
	type l1Key struct {
		i, d   cache.Config
		writes core.WriteMode
	}
	byKey := map[l1Key]*l1Group{}
	keys := make([]l1Key, len(cfgs))
	for i, cfg := range cfgs {
		if !cfg.L1Filterable() {
			continue
		}
		keys[i] = l1Key{cfg.L1I, cfg.L1D, cfg.Writes}
		g := byKey[keys[i]]
		if g == nil {
			g = &l1Group{}
			byKey[keys[i]] = g
		}
		g.left.Add(1)
	}
	groups := make([]*l1Group, len(cfgs))
	for i, cfg := range cfgs {
		if g := byKey[keys[i]]; cfg.L1Filterable() && g.left.Load() > 1 {
			groups[i] = g
		}
	}
	return groups
}

// record returns the group's record, building it from refs under the
// group lock and ctx in an "l1-pass" child of sim when no attempt has
// yet built it. A failed or panicking pass leaves no record behind, so
// the next attempt builds it again.
func (g *l1Group) record(ctx context.Context, refs []trace.Ref, cfg core.Config, sim *span.Span) (*core.L1Record, string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rec != nil {
		return g.rec, l1Replayed, nil
	}
	ps := sim.Child("l1-pass", span.Attr{Key: "refs", Value: strconv.Itoa(len(refs))})
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
// on reg: replayed from the group's record when cfg has a group, live
// otherwise. It also reports where the L1 stage came from.
func simulateIn(ctx context.Context, g *l1Group, refs []trace.Ref, cfg core.Config, reg *obs.Registry, sim *span.Span) (core.Stats, string, error) {
	if g == nil {
		st, err := simulate(ctx, refs, cfg, reg)
		return st, l1Live, err
	}
	rec, how, err := g.record(ctx, refs, cfg, sim)
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
