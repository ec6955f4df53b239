package core

// This file splits a simulation into its two stages for the
// hierarchies whose L1 caches behave the same whatever sits below them:
// conventional, exclusive and single-level, under write-back/allocate.
// RecordL1 runs the L1 stage once over a trace and keeps one event per
// L1 miss; Replay feeds those events to the L2 stage of any such
// configuration with the same L1 geometry (System.l1Miss, the method
// the live System.Access calls) and returns the Stats a live run would.

import (
	"context"
	"fmt"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/trace"
)

// ctxCheckInterval is how many references (or replayed L1 misses) a
// simulation runs between checks of its context, so a cancelled
// simulation stops promptly without a per-reference select.
const ctxCheckInterval = 8192

// eachChunk calls fn over xs in chunks of ctxCheckInterval, checking ctx
// before every chunk after the first; it returns ctx's error once ctx
// is done.
func eachChunk[T any](ctx context.Context, xs []T, fn func([]T)) error {
	for len(xs) > 0 {
		n := min(len(xs), ctxCheckInterval)
		fn(xs[:n])
		if xs = xs[n:]; len(xs) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// L1Filterable reports whether a recorded L1 stage can stand in for
// cfg's L1 caches. It holds under write-back/allocate for the
// conventional and exclusive policies and for single-level systems: the
// L2 never changes which references hit in L1 or which lines they
// displace, only (under exclusive) whether a displaced line is dirty,
// which Replay tracks. It does not hold under the inclusive policy,
// whose back-invalidations remove L1 lines, nor under
// write-through/no-allocate, whose stores bypass the L1 stage.
func (c Config) L1Filterable() bool {
	return c.Writes == WriteBackAllocate && (!c.TwoLevel() || c.Policy != Inclusive)
}

// l1Event is one L1 miss: the reference and the line its allocation
// displaced.
type l1Event struct {
	addr   cache.Addr
	victim cache.LineAddr
	// frame is the L1 frame (cache.Frame) the missing line was
	// allocated into, which the displaced line had occupied.
	frame uint32
	instr bool
	// victimValid and victimDirty describe the displaced line; dirty
	// here means written by a store while in the L1 (dirty data moved
	// up from an exclusive L2 is tracked by Replay).
	victimValid, victimDirty bool
}

// L1Record is the L1 stage of one L1 geometry over one trace: the
// reference and L1 hit/miss counts plus one event per L1 miss, in trace
// order. It is immutable once built, so concurrent Replays may share it.
type L1Record struct {
	l1i, l1d  cache.Config
	st        Stats
	evictions [2]uint64 // displaced valid lines: [0] L1I, [1] L1D
	events    []l1Event
}

// Misses reports the number of recorded L1 misses.
func (r *L1Record) Misses() int { return len(r.events) }

// RecordL1 runs the L1 stage of cfg over refs. cfg's L2 and policy are
// ignored; its write mode must be write-back/allocate. RecordL1 checks
// ctx between chunks of references and returns ctx's error once ctx is
// done.
func RecordL1(ctx context.Context, cfg Config, refs []trace.Ref) (*L1Record, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Writes != WriteBackAllocate {
		return nil, fmt.Errorf("core: cannot record the L1 stage under %s", cfg.Writes)
	}
	l1 := [2]*cache.Cache{cache.New(cfg.L1I), cache.New(cfg.L1D)}
	rec := &L1Record{l1i: cfg.L1I, l1d: cfg.L1D}
	err := eachChunk(ctx, refs, func(chunk []trace.Ref) {
		for _, r := range chunk {
			instr, write := rec.st.countRef(r.Kind)
			side := sideOf(instr)
			c, a := l1[side], cache.Addr(r.Addr)
			hit, v := accessL1(c, a, write)
			rec.st.countL1(instr, hit)
			if hit {
				continue
			}
			if v.Valid {
				rec.evictions[side]++
			}
			rec.events = append(rec.events, l1Event{
				addr: a, victim: v.Line, frame: uint32(c.Frame(c.Line(a))),
				instr: instr, victimValid: v.Valid, victimDirty: v.Dirty,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// sideOf indexes per-L1 arrays: 0 for the instruction cache, 1 for data.
func sideOf(instr bool) int {
	if instr {
		return 0
	}
	return 1
}

// Replay runs the L2 stage of cfg over rec and returns exactly the Stats
// a fresh System of cfg returns from Run over rec's trace. cfg must be
// L1Filterable with rec's L1 geometry. With a non-nil registry the
// counters System.Instrument wires end where the live run leaves them.
// Replay checks ctx between chunks of events and returns ctx's error
// once ctx is done.
//
// Under the exclusive policy an L2 hit moves a dirty line up into L1,
// so a later L1 victim may be dirty because of the L2. Replay keeps that
// "dirty from below" bit per L1 frame: set when a move-up arrives dirty,
// cleared when the frame's line is displaced.
func Replay(ctx context.Context, rec *L1Record, cfg Config, reg *obs.Registry) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if !cfg.L1Filterable() {
		return Stats{}, fmt.Errorf("core: %s under %s cannot replay a recorded L1 stage", cfg, cfg.Writes)
	}
	if cfg.L1I != rec.l1i || cfg.L1D != rec.l1d {
		return Stats{}, fmt.Errorf("core: L1 %s/%s does not match the recorded %s/%s", cfg.L1I, cfg.L1D, rec.l1i, rec.l1d)
	}
	s := &System{cfg: cfg, st: rec.st}
	if cfg.TwoLevel() {
		s.l2 = cache.New(cfg.L2)
	}
	s.instrumentL2(reg)
	var below [2][]bool
	if s.l2 != nil && cfg.Policy == Exclusive {
		below = [2][]bool{make([]bool, cfg.L1I.Lines()), make([]bool, cfg.L1D.Lines())}
	}
	var dirtyWB [2]uint64
	err := eachChunk(ctx, rec.events, func(evs []l1Event) {
		for i := range evs {
			ev := &evs[i]
			side := sideOf(ev.instr)
			v := cache.Victim{Line: ev.victim, Valid: ev.victimValid, Dirty: ev.victimDirty}
			fromBelow := below[side]
			if fromBelow != nil {
				v.Dirty = v.Dirty || fromBelow[ev.frame]
				fromBelow[ev.frame] = false
			}
			if v.Dirty {
				dirtyWB[side]++
			}
			if s.l1Miss(ev.addr, v) {
				fromBelow[ev.frame] = true
			}
		}
	})
	if err != nil {
		return Stats{}, err
	}
	cache.AddCounts(reg, "cache_l1i", cache.Counts{
		Hits: rec.st.L1IHits, Misses: rec.st.L1IMisses,
		Evictions: rec.evictions[0], DirtyWritebacks: dirtyWB[0],
	})
	cache.AddCounts(reg, "cache_l1d", cache.Counts{
		Hits: rec.st.L1DHits, Misses: rec.st.L1DMisses,
		Evictions: rec.evictions[1], DirtyWritebacks: dirtyWB[1],
	})
	return s.st, nil
}
