package sweep

// This file splits an evaluation's identity in two: the stats key — what
// a simulation depends on — and the pricing that turns simulated Stats
// into a Point. Hit and miss counts do not depend on the technology, the
// off-chip service time or dual porting, so a Memo lets sweeps that differ
// only in those fields simulate each geometry once and re-price it.

import (
	"context"
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

// get returns the Stats the memo holds under k.
func (m *Memo) get(k statsKey) (core.Stats, bool) {
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
// key, otherwise by executing a Plan of that one key — which streams
// the trace through a live hierarchy instrumented on reg — and storing
// the result. The lookup counts in reg's MetricMemoHits or
// MetricMemoMisses. A nil memo always simulates and counts nothing.
func (m *Memo) Stats(w spec.Workload, refs uint64, cfg core.Config, reg *obs.Registry) (core.Stats, error) {
	k := newStatsKey(w, refs, cfg)
	if m == nil {
		m = &Memo{}
	} else if s, ok := m.get(k); ok {
		reg.Counter(MetricMemoHits).Inc()
		return s, nil
	} else {
		reg.Counter(MetricMemoMisses).Inc()
	}
	var p Plan
	p.Add(w, refs, cfg)
	if err := p.Execute(context.Background(), m, ExecOptions{Metrics: reg}); err != nil {
		return core.Stats{}, err
	}
	s, _ := m.get(k)
	return s, nil
}
