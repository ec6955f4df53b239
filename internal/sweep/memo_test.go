package sweep

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
)

// pointBytes renders every point as it persists, one per line.
func pointBytes(t *testing.T, points []Point) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range points {
		b, err := MarshalPointJSON(p)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// memoVariants is the pricing × geometry grid the memo must collapse:
// off-chip time and dual porting only re-price, while L2 associativity
// and the two-level policy change what is simulated.
func memoVariants() []Options {
	var out []Options
	for _, off := range []float64{50, 200} {
		for _, dual := range []bool{false, true} {
			for _, assoc := range []int{1, 4} {
				for _, pol := range []core.Policy{core.Conventional, core.Exclusive} {
					opt := smallOpt()
					opt.OffChipNS, opt.DualPorted, opt.L2Assoc, opt.Policy = off, dual, assoc, pol
					out = append(out, opt)
				}
			}
		}
	}
	return out
}

// distinctSimulations counts the simulations the variants need, derived
// from the geometry alone: a single-level configuration is the same
// simulation whatever L2 settings its sweep carries.
func distinctSimulations(variants []Options) int {
	seen := map[string]bool{}
	for _, opt := range variants {
		for _, cfg := range Configs(opt) {
			id := Label(cfg)
			if cfg.TwoLevel() {
				id += fmt.Sprintf("/%d/%s", cfg.L2.Assoc, cfg.Policy)
			}
			seen[id] = true
		}
	}
	return len(seen)
}

// TestMemoSharedAcrossPricingMatchesMemoless is the stats-memo
// acceptance test: one memo shared across off-chip time, dual porting,
// L2 associativity and policy yields points byte-identical to memo-less
// sweeps while simulating each distinct stats key exactly once.
func TestMemoSharedAcrossPricingMatchesMemoless(t *testing.T) {
	w := testWorkload(t)
	variants := memoVariants()
	var memo Memo
	tr := span.NewTracer()
	reg := obs.NewRegistry()
	requested := 0
	for _, opt := range variants {
		plain, err := RunContext(context.Background(), w, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Memo, opt.Trace, opt.Metrics = &memo, tr, reg
		memoized, err := RunContext(context.Background(), w, opt)
		if err != nil {
			t.Fatal(err)
		}
		requested += len(memoized)
		if !bytes.Equal(pointBytes(t, memoized), pointBytes(t, plain)) {
			t.Errorf("off=%v dual=%v assoc=%d pol=%s: memoized points differ from a memo-less sweep",
				opt.OffChipNS, opt.DualPorted, opt.L2Assoc, opt.Policy)
		}
	}

	want := distinctSimulations(variants)
	if want >= requested {
		t.Fatalf("test grid has no repeated geometry: %d distinct of %d", want, requested)
	}
	ix := indexSpans(tr.Snapshot())
	if got := len(ix.byName["simulate"]); got != want {
		t.Errorf("%d simulate spans, want one per distinct stats key (%d)", got, want)
	}
	if got := len(memo.m); got != want {
		t.Errorf("memo holds %d stats keys, want %d", got, want)
	}
	sources := map[string]int{}
	for _, a := range ix.byName["attempt"] {
		sources[a.Attr("stats")]++
	}
	if sources["simulated"] != want || sources["memo"] != requested-want {
		t.Errorf("attempt stats sources = %v, want simulated=%d memo=%d", sources, want, requested-want)
	}
	s := reg.Snapshot()
	if got := s.Counters[MetricMemoMisses]; got != uint64(want) {
		t.Errorf("%s = %d, want %d", MetricMemoMisses, got, want)
	}
	if got := s.Counters[MetricMemoHits]; got != uint64(requested-want) {
		t.Errorf("%s = %d, want %d", MetricMemoHits, got, requested-want)
	}
}

// TestMemoKeyedByGenerator pins that the stats key holds the workload's
// generator, not its name: a reseeded workload under the same name must
// simulate afresh and match its own memo-less sweep.
func TestMemoKeyedByGenerator(t *testing.T) {
	w := testWorkload(t)
	reseeded := w
	reseeded.Gen.Seed ^= 0x5eed
	opt := smallOpt()
	var memo Memo
	memoOpt := opt
	memoOpt.Memo = &memo
	if _, err := RunContext(context.Background(), w, memoOpt); err != nil {
		t.Fatal(err)
	}
	before := len(memo.m)
	got, err := RunContext(context.Background(), reseeded, memoOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(memo.m) != 2*before {
		t.Errorf("memo holds %d keys after two seeds of %d configurations, want %d", len(memo.m), before, 2*before)
	}
	want, err := RunContext(context.Background(), reseeded, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pointBytes(t, got), pointBytes(t, want)) {
		t.Error("reseeded workload was answered from the original seed's stats")
	}
}

// TestMemoConcurrentSweeps shares one memo between concurrent worker-pool
// sweeps; run it under -race.
func TestMemoConcurrentSweeps(t *testing.T) {
	w := testWorkload(t)
	variants := memoVariants()[:4]
	var memo Memo
	results := make([][]Point, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i, opt := range variants {
		opt.Workers = 4
		opt.Memo = &memo
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunContext(context.Background(), w, opt)
		}()
	}
	wg.Wait()
	for i, opt := range variants {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := RunContext(context.Background(), w, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pointBytes(t, results[i]), pointBytes(t, want)) {
			t.Errorf("variant %d: concurrent memoized sweep differs from a memo-less one", i)
		}
	}
	if got, want := len(memo.m), distinctSimulations(variants); got != want {
		t.Errorf("memo holds %d stats keys, want %d", got, want)
	}
}

// TestResumeSeedsMemo checks that resumed points fill the memo, so a
// sweep that differs from the journaled one only in pricing simulates
// nothing and still matches a memo-less sweep.
func TestResumeSeedsMemo(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	var journal bytes.Buffer
	ck, err := NewCheckpointer(&journal)
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = ck
	full, err := RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Resume(&journal)
	if err != nil {
		t.Fatal(err)
	}

	var memo Memo
	opt.Checkpoint, opt.Resume, opt.Memo = nil, rs, &memo
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatal(err)
	}
	if len(memo.m) != len(full) {
		t.Fatalf("resume seeded %d stats keys, want %d", len(memo.m), len(full))
	}

	repriced := opt
	repriced.Resume = nil
	repriced.OffChipNS = 200
	repriced.DualPorted = true
	tr := span.NewTracer()
	repriced.Trace = tr
	got, err := RunContext(context.Background(), w, repriced)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(indexSpans(tr.Snapshot()).byName["simulate"]); n != 0 {
		t.Errorf("re-priced sweep simulated %d configurations, want 0", n)
	}
	repriced.Memo, repriced.Trace = nil, nil
	want, err := RunContext(context.Background(), w, repriced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pointBytes(t, got), pointBytes(t, want)) {
		t.Error("points re-priced from resumed stats differ from a memo-less sweep")
	}
}

// TestMemoHitGeneratesNoTrace checks that a sweep answered entirely from
// the memo never generates its workload trace.
func TestMemoHitGeneratesNoTrace(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	opt.Refs = 500_000 // an 8 MB trace, far above what re-pricing allocates
	var memo Memo
	opt.Memo = &memo
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatal(err)
	}
	opt.OffChipNS = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunContext(context.Background(), w, opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("memo-answered sweep allocated %d bytes; the trace was generated", alloc)
	}
}

// TestMemoEvaluatorAndEvaluate checks the single-configuration entry
// points: both re-price memoized Stats to the memo-less point.
func TestMemoEvaluatorAndEvaluate(t *testing.T) {
	w := testWorkload(t)
	opt := smallOpt()
	cfg := Configs(opt)[1]
	var memo Memo
	memoOpt := opt
	memoOpt.Memo = &memo
	first := Evaluate(w, cfg, memoOpt)
	if len(memo.m) != 1 {
		t.Fatalf("Evaluate left %d stats keys, want 1", len(memo.m))
	}

	opt.OffChipNS, memoOpt.OffChipNS = 200, 200
	tr := span.NewTracer()
	memoOpt.Trace = tr
	got, err := NewEvaluator(w, memoOpt).Evaluate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(indexSpans(tr.Snapshot()).byName["simulate"]); n != 0 {
		t.Errorf("Evaluator simulated %d times on a memo hit", n)
	}
	want := Evaluate(w, cfg, opt)
	if !bytes.Equal(pointBytes(t, []Point{got}), pointBytes(t, []Point{want})) {
		t.Error("Evaluator memo hit differs from a memo-less Evaluate")
	}
	if first.TPINS >= got.TPINS {
		t.Errorf("200ns TPI %v not above 50ns TPI %v: the hit was not re-priced", got.TPINS, first.TPINS)
	}
}

// TestMemoKeyIgnoresPricingAndSingleLevelL2 pins the key normalization.
func TestMemoKeyIgnoresPricingAndSingleLevelL2(t *testing.T) {
	w := testWorkload(t)
	single := Configs(smallOpt())[0]
	if single.TwoLevel() {
		t.Fatal("first config is not single-level")
	}
	excl := single
	excl.Policy = core.Exclusive
	excl.L2.Assoc = 4
	if newStatsKey(w, 1000, single) != newStatsKey(w, 1000, excl) {
		t.Error("single-level key depends on L2 settings")
	}
	if newStatsKey(w, 1000, single) == newStatsKey(w, 2000, single) {
		t.Error("key ignores the trace length")
	}
	two := Configs(smallOpt())[1]
	exclTwo := two
	exclTwo.Policy = core.Exclusive
	if !two.TwoLevel() || newStatsKey(w, 1000, two) == newStatsKey(w, 1000, exclTwo) {
		t.Error("two-level key ignores the policy")
	}
}
