package sweep

// This file splits an evaluation's identity in two: the stats key — what
// a simulation depends on — and the pricing that turns simulated Stats
// into a Point. Hit and miss counts do not depend on the technology, the
// off-chip service time or dual porting, so a Memo lets sweeps that differ
// only in those fields simulate each geometry once and re-price it.

import (
	"sync"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// Memo maps stats keys — (workload generator, trace length, hierarchy
// geometry) — to the simulated core.Stats. RunContext, Evaluator and
// Evaluate consult Options.Memo before simulating and, on a hit, only
// re-price. The zero Memo is empty and ready to use; a nil *Memo
// memoizes nothing. A Memo is safe for concurrent use and must not be
// copied after first use.
//
// A Memo is meant to live as long as one coherent batch of work (the
// figure harness owns one): it grows with every distinct simulation and
// is never evicted.
type Memo struct {
	mu sync.Mutex
	m  map[statsKey]core.Stats
}

// statsKey is everything a simulation's Stats depend on. It holds the
// workload's full generator parameters rather than its name, so
// reseeded workloads never share entries, and no pricing-only field
// (technology, off-chip time, dual porting).
type statsKey struct {
	gen  trace.GenParams
	refs uint64
	cfg  core.Config
}

// newStatsKey builds the stats key of cfg over the first refs references
// of w. A single-level configuration ignores its L2 and two-level
// policy, so both are zeroed.
func newStatsKey(w spec.Workload, refs uint64, cfg core.Config) statsKey {
	if !cfg.TwoLevel() {
		cfg.L2, cfg.Policy = cache.Config{}, 0
	}
	return statsKey{gen: w.Gen, refs: refs, cfg: cfg}
}

func (m *Memo) lookup(k statsKey) (core.Stats, bool) {
	if m == nil {
		return core.Stats{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.m[k]
	return s, ok
}

func (m *Memo) store(k statsKey, s core.Stats) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[statsKey]core.Stats)
	}
	m.m[k] = s
}

// Stats returns cfg's Stats over the first refs references of w: from
// the memo when an earlier simulation stored them under the same stats
// key, otherwise by simulating and storing the result. A nil memo
// always simulates.
func (m *Memo) Stats(w spec.Workload, refs uint64, cfg core.Config) (core.Stats, error) {
	return m.stats(w, refs, cfg, nil)
}

// stats is Stats with the simulated hierarchy instrumented on reg.
func (m *Memo) stats(w spec.Workload, refs uint64, cfg core.Config, reg *obs.Registry) (core.Stats, error) {
	k := newStatsKey(w, refs, cfg)
	if s, ok := m.lookup(k); ok {
		return s, nil
	}
	sys, err := core.TryNewSystem(cfg)
	if err != nil {
		return core.Stats{}, err
	}
	sys.Instrument(reg)
	s := sys.Run(w.Stream(refs))
	m.store(k, s)
	return s, nil
}
