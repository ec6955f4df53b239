package core

import (
	"context"
	"errors"
	"maps"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/obs"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// checkReplay requires the replay of cfg's L2 stage over rec to return
// the Stats, and leave the registry counters, of a live instrumented
// System.Run of cfg over refs.
func checkReplay(t *testing.T, rec *L1Record, cfg Config, refs []trace.Ref) {
	t.Helper()
	liveReg, replayReg := obs.NewRegistry(), obs.NewRegistry()
	sys := NewSystem(cfg)
	sys.Instrument(liveReg)
	want := sys.Run(trace.NewSliceStream(refs))
	got, err := Replay(context.Background(), rec, cfg, replayReg)
	if err != nil {
		t.Fatalf("%s: Replay: %v", cfg, err)
	}
	if got != want {
		t.Fatalf("%s (L1 %s/%s): replayed stats differ\n got %+v\nwant %+v", cfg, cfg.L1I, cfg.L1D, got, want)
	}
	if g, w := replayReg.Snapshot().Counters, liveReg.Snapshot().Counters; !maps.Equal(g, w) {
		t.Fatalf("%s: replayed counters differ\n got %v\nwant %v", cfg, g, w)
	}
}

func mustRecord(t *testing.T, cfg Config, refs []trace.Ref) *L1Record {
	t.Helper()
	rec, err := RecordL1(context.Background(), cfg, refs)
	if err != nil {
		t.Fatalf("RecordL1(%s): %v", cfg, err)
	}
	return rec
}

// fuzzConfig decodes a small hierarchy: L1I and L1D of 4–32 lines each,
// direct-mapped or set-associative under any replacement policy, and
// either no L2 or an L2 of 8–128 lines of any associativity and policy
// under the conventional or exclusive discipline.
func fuzzConfig(l1Shape, l2Shape uint8) Config {
	const line = 16
	l1 := func(sizeBits, assocBits uint8) cache.Config {
		return cache.Config{
			Size: line << (2 + sizeBits%4), LineSize: line,
			Assoc: 1 << (assocBits % 3), Policy: cache.ReplacementPolicy(l1Shape >> 6 % 3),
		}
	}
	cfg := Config{
		L1I:    l1(l1Shape, l1Shape>>4),
		L1D:    l1(l1Shape>>2, l1Shape>>5),
		Policy: Policy(l2Shape >> 7),
	}
	if l2Lines := l2Shape % 6; l2Lines > 0 {
		cfg.L2 = cache.Config{
			Size: line << (2 + l2Lines), LineSize: line,
			Assoc: 1 << (l2Shape >> 3 % 4), Policy: cache.ReplacementPolicy(l2Shape >> 5 % 3),
		}
	}
	return cfg
}

// fuzzRefs draws n references over a pool of lines small enough to make
// every level conflict. Instruction fetches, loads and stores share the
// pool, so lines dirtied by stores reach the L2 and come back up into
// the instruction cache too.
func fuzzRefs(seed uint64, n int, pool uint64) []trace.Ref {
	rng := seed | 1
	refs := make([]trace.Ref, n)
	for i := range refs {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		refs[i] = trace.Ref{Kind: trace.Kind(rng % 3), Addr: (rng >> 8) % pool * 16}
	}
	return refs
}

// FuzzL1FilterMatchesSystem is the differential oracle of the L1
// filter: for random L1 and L2 geometries, policies and reference
// streams, replaying a recorded L1 stage must equal the live System.
func FuzzL1FilterMatchesSystem(f *testing.F) {
	f.Add(uint64(1), uint16(3000), uint8(0), uint8(0x85), uint8(64))
	f.Add(uint64(7), uint16(5000), uint8(0x55), uint8(0x1b), uint8(200))
	f.Add(uint64(42), uint16(9000), uint8(0xff), uint8(0xfc), uint8(90))
	f.Add(uint64(3), uint16(100), uint8(0x30), uint8(0x00), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, l1Shape, l2Shape, pool uint8) {
		cfg := fuzzConfig(l1Shape, l2Shape)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		refs := fuzzRefs(seed, int(n), uint64(pool)+1)
		checkReplay(t, mustRecord(t, cfg, refs), cfg, refs)
	})
}

// TestL1FilterMatchesSystemSpecWorkloads replays one L1 record per L1
// size against every L2 of the paper's design space (split
// direct-mapped L1s of 1KB–256KB, no L2 or an L2 from 2×L1 to 256KB),
// both disciplines and both of the paper's L2 associativities, for all
// seven workloads.
func TestL1FilterMatchesSystemSpecWorkloads(t *testing.T) {
	refsPer := uint64(10_000)
	if testing.Short() {
		refsPer = 4_000
	}
	for _, w := range spec.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			refs := trace.Collect(w.Stream(refsPer), refsPer)
			for l1 := int64(1 << 10); l1 <= 256<<10; l1 *= 2 {
				dm := cache.Config{Size: l1, LineSize: 16, Assoc: 1}
				rec := mustRecord(t, Config{L1I: dm, L1D: dm}, refs)
				for l2 := int64(0); l2 <= 256<<10; l2 = max(2*l1, 2*l2) {
					for _, pol := range []Policy{Conventional, Exclusive} {
						for _, assoc := range []int{1, 4} {
							cfg := Config{L1I: dm, L1D: dm, Policy: pol}
							if l2 > 0 {
								cfg.L2 = cache.Config{Size: l2, LineSize: 16, Assoc: assoc}
							}
							checkReplay(t, rec, cfg, refs)
						}
					}
				}
			}
		})
	}
}

// TestL1RecordSharedAcrossPolicies: one record serves conventional,
// exclusive and single-level replays of a dirty-heavy stream, with
// set-associative L1s and every L2 replacement policy.
func TestL1RecordSharedAcrossPolicies(t *testing.T) {
	refs := fuzzRefs(99, 30_000, 700)
	l1 := cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 2, Policy: cache.LRU}
	rec := mustRecord(t, Config{L1I: l1, L1D: l1}, refs)
	checkReplay(t, rec, Config{L1I: l1, L1D: l1}, refs)
	for _, pol := range []Policy{Conventional, Exclusive} {
		for _, rp := range []cache.ReplacementPolicy{cache.Random, cache.LRU, cache.FIFO} {
			cfg := Config{L1I: l1, L1D: l1, Policy: pol,
				L2: cache.Config{Size: 4 << 10, LineSize: 16, Assoc: 4, Policy: rp}}
			checkReplay(t, rec, cfg, refs)
		}
	}
	if rec.Misses() == 0 {
		t.Fatal("stream recorded no L1 misses")
	}
}

func TestL1FilterRefusesCoupledConfigs(t *testing.T) {
	dm := cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1}
	l2 := cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 4}
	refs := fuzzRefs(5, 1000, 300)
	rec := mustRecord(t, Config{L1I: dm, L1D: dm}, refs)
	big := cache.Config{Size: 2 << 10, LineSize: 16, Assoc: 1}
	for name, cfg := range map[string]Config{
		"inclusive":     {L1I: dm, L1D: dm, L2: l2, Policy: Inclusive},
		"write-through": {L1I: dm, L1D: dm, L2: l2, Writes: WriteThroughNoAllocate},
		"other L1":      {L1I: big, L1D: big, L2: l2},
		"invalid":       {L1I: dm, L1D: dm, L2: cache.Config{Size: 3000, LineSize: 16, Assoc: 1}},
	} {
		if _, err := Replay(context.Background(), rec, cfg, nil); err == nil {
			t.Errorf("%s: Replay accepted %s", name, cfg)
		}
	}
	if _, err := RecordL1(context.Background(), Config{L1I: dm, L1D: dm, Writes: WriteThroughNoAllocate}, refs); err == nil {
		t.Error("RecordL1 accepted write-through/no-allocate")
	}
	if (Config{L1I: dm, L1D: dm, Policy: Inclusive}).L1Filterable() != true {
		t.Error("a single-level system is filterable whatever its (ignored) policy")
	}
}

// TestL1FilterHonorsContext: both stages stop at a chunk boundary once
// their context is done.
func TestL1FilterHonorsContext(t *testing.T) {
	dm := cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1}
	cfg := Config{L1I: dm, L1D: dm, L2: cache.Config{Size: 8 << 10, LineSize: 16, Assoc: 4}}
	refs := fuzzRefs(11, 4*ctxCheckInterval, 1<<14)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RecordL1(ctx, cfg, refs); !errors.Is(err, context.Canceled) {
		t.Errorf("RecordL1 under a cancelled context: err = %v", err)
	}
	rec := mustRecord(t, cfg, refs)
	if rec.Misses() <= ctxCheckInterval {
		t.Fatalf("only %d misses recorded; the replay would not reach a check", rec.Misses())
	}
	if _, err := Replay(ctx, rec, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Replay under a cancelled context: err = %v", err)
	}
	if _, err := NewSystem(cfg).RunRefs(ctx, refs); !errors.Is(err, context.Canceled) {
		t.Errorf("RunRefs under a cancelled context: err = %v", err)
	}
}
