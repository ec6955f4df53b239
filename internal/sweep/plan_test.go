package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"twolevel/internal/cache"
	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// fuzzPlanKey decodes one stats key from two bytes: any of the seven
// workloads, a split L1 of 1–8KB with 16-, 32- or 64-byte lines, and no
// L2 or an L2 of 2–16x the L1 of any associativity and replacement
// policy, under any two-level policy and either write mode.
func fuzzPlanKey(a, b byte) (spec.Workload, core.Config) {
	w := spec.All()[int(a)%7]
	line := 16 << (a >> 3 % 3)
	l1 := cache.Config{Size: 1 << 10 << (a >> 5 % 4), LineSize: line, Assoc: 1}
	cfg := core.Config{L1I: l1, L1D: l1, Policy: core.Policy(b % 3), Writes: core.WriteMode(b >> 2 % 2)}
	if shift := b >> 3 % 5; shift > 0 {
		cfg.L2 = cache.Config{
			Size: l1.Size << shift, LineSize: line,
			Assoc: 1 << (b >> 6), Policy: cache.ReplacementPolicy(a >> 7),
		}
	}
	return w, cfg
}

// FuzzExecuteMatchesSystem is the executor's differential oracle: for a
// random set of stats keys over several workloads, both write modes,
// all three policies and mixed L1 sizes and line sizes, executing the
// plan on several workers stores, for every key, exactly the Stats a
// fresh live core.System returns; and every trace job sees the trace a
// fresh generator yields.
func FuzzExecuteMatchesSystem(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x21, 0x49, 0x42, 0x91, 0xe3, 0x1c})
	f.Add([]byte{0x05, 0xff, 0x05, 0x0b, 0x05, 0x13, 0x05, 0x53, 0x0d, 0x13})
	f.Add([]byte{0x13, 0x2c, 0x66, 0x0a, 0x9a, 0xd7, 0x01, 0x88, 0x40, 0x40, 0x7f, 0x10})
	f.Fuzz(func(t *testing.T, keys []byte) {
		const refs = 3_000
		if len(keys) > 24 {
			keys = keys[:24]
		}
		var p Plan
		type key struct {
			w   spec.Workload
			cfg core.Config
		}
		var want []key
		for i := 0; i+1 < len(keys); i += 2 {
			w, cfg := fuzzPlanKey(keys[i], keys[i+1])
			if cfg.Validate() != nil {
				continue
			}
			p.Add(w, refs, cfg)
			want = append(want, key{w, cfg})
		}
		seen := make(chan string, 8)
		for _, k := range want[:min(len(want), 2)] {
			w := k.w
			p.AddTraceJob(w, refs, TraceJob{Name: "check", Run: func(_ context.Context, got []trace.Ref) error {
				if !reflect.DeepEqual(got, trace.Collect(w.Stream(refs), refs)) {
					t.Errorf("%s: trace job saw another trace", w.Name)
				}
				seen <- w.Name
				return nil
			}})
		}
		var memo Memo
		if err := p.Execute(context.Background(), &memo, ExecOptions{workers: 3}); err != nil {
			t.Fatal(err)
		}
		for _, k := range want {
			got, ok := memo.get(newStatsKey(k.w, refs, k.cfg))
			if !ok {
				t.Fatalf("%s %s: no Stats after Execute", k.w.Name, k.cfg)
			}
			if live := core.NewSystem(k.cfg).Run(k.w.Stream(refs)); got != live {
				t.Fatalf("%s %s under %s: executed Stats differ from a live System\n got %+v\nwant %+v",
					k.w.Name, k.cfg, k.cfg.Writes, got, live)
			}
		}
		if n := len(seen); n != min(len(want), 2) {
			t.Errorf("%d trace jobs ran, want %d", n, min(len(want), 2))
		}
	})
}

// spanNames counts a tracer's spans by name.
func spanNames(tr *span.Tracer) map[string]int {
	n := map[string]int{}
	for _, d := range tr.Snapshot() {
		n[d.Name]++
	}
	return n
}

// TestExecuteStages: one trace-gen per trace, one l1-pass per L1 group
// of two or more keys, one replay per key of such a group and one live
// span per inclusive key, lone key or trace job; executing the plan
// again simulates nothing and generates no trace.
func TestExecuteStages(t *testing.T) {
	w := testWorkload(t)
	gcc1, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	var p Plan
	for _, pol := range []core.Policy{core.Conventional, core.Exclusive, core.Inclusive} {
		opt := groupOpt()
		opt.Policy = pol
		p.AddSweep(w, opt)
	}
	p.AddSweep(gcc1, smallOpt())
	p.AddTraceJob(gcc1, smallOpt().Refs, TraceJob{Name: "noop", Run: func(context.Context, []trace.Ref) error { return nil }})
	lone := smallOpt()
	lone.L1Sizes, lone.L2Sizes = []int64{64 << 10}, []int64{0}
	p.Add(gcc1, lone.Refs, Configs(lone)[0])
	if p.Traces() != 2 {
		t.Fatalf("plan runs on %d traces, want 2", p.Traces())
	}
	// groupOpt: 3 single-level + 21 two-level configurations per policy;
	// the single-level ones are one key whatever the policy.
	inclusive := 21
	if got, want := p.Keys(), 3+3*21+len(Configs(smallOpt()))+1; got != want {
		t.Fatalf("plan holds %d keys, want %d", got, want)
	}
	tr := span.NewTracer()
	var memo Memo
	if err := p.Execute(context.Background(), &memo, ExecOptions{workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"trace-gen": 2,
		"l1-pass":   3 + 2, // espresso's three L1 sizes, gcc1's two
		"replay":    p.Keys() - inclusive - 1,
		"live":      inclusive + 1 + 1,
	}
	if got := spanNames(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("stage spans = %v, want %v", got, want)
	}

	again := span.NewTracer()
	p.traces[1].jobs = nil
	if err := p.Execute(context.Background(), &memo, ExecOptions{Trace: again}); err != nil {
		t.Fatal(err)
	}
	if got := spanNames(again); len(got) != 0 {
		t.Errorf("re-executing a filled plan opened spans %v", got)
	}
}

// journalLabels lists a journal's records as "key label" in order.
func journalLabels(t *testing.T, b []byte) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for first := true; sc.Scan(); first = false {
		if first {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		out = append(out, e.Key+" "+e.Point.Label)
	}
	return out
}

// TestExecuteJournalsInPlanOrder: on four workers, a plan journals its
// sweeps' points trace by trace in the order the sweeps and their
// configurations were added — the same bytes, run after run, as running
// the sweeps one after another on one worker.
func TestExecuteJournalsInPlanOrder(t *testing.T) {
	w := testWorkload(t)
	gcc1, err := spec.ByName("gcc1")
	if err != nil {
		t.Fatal(err)
	}
	excl := groupOpt()
	excl.Policy = core.Exclusive
	sweeps := []struct {
		w   spec.Workload
		opt Options
	}{{w, groupOpt()}, {gcc1, smallOpt()}, {w, excl}}

	var seq bytes.Buffer
	ck, err := NewCheckpointer(&seq)
	if err != nil {
		t.Fatal(err)
	}
	// Plan order is trace-major: espresso's two sweeps, then gcc1's.
	for _, i := range []int{0, 2, 1} {
		opt := sweeps[i].opt
		opt.Checkpoint, opt.Workers = ck, 1
		if _, err := RunContext(context.Background(), sweeps[i].w, opt); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 2; run++ {
		var p Plan
		for _, s := range sweeps {
			p.AddSweep(s.w, s.opt)
		}
		var got bytes.Buffer
		ck, err := NewCheckpointer(&got)
		if err != nil {
			t.Fatal(err)
		}
		var memo Memo
		if err := p.Execute(context.Background(), &memo, ExecOptions{workers: 4, Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), seq.Bytes()) {
			t.Fatalf("run %d: plan journal differs from sequential sweeps\n got %v\nwant %v",
				run, journalLabels(t, got.Bytes()), journalLabels(t, seq.Bytes()))
		}
	}
}

// TestExecuteResumeSkipsJournaled: a plan resumed from a journal seeds
// the memo with the journaled points' Stats, simulates only the keys no
// journaled point covers, and journals only the points not already
// journaled.
func TestExecuteResumeSkipsJournaled(t *testing.T) {
	w := testWorkload(t)
	opt := groupOpt()
	pts, err := RunContext(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	ck, err := NewCheckpointer(&first)
	if err != nil {
		t.Fatal(err)
	}
	key := SweepKey(w.Name, opt)
	journaled := map[string]bool{}
	for _, p := range pts[:10] {
		journaled[p.Label] = true
		if err := ck.Record(key, p); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := Resume(&first)
	if err != nil {
		t.Fatal(err)
	}
	var p Plan
	p.AddSweep(w, opt)
	var rest bytes.Buffer
	if ck, err = NewCheckpointer(&rest); err != nil {
		t.Fatal(err)
	}
	tr := span.NewTracer()
	var memo Memo
	if err := p.Execute(context.Background(), &memo, ExecOptions{workers: 2, Trace: tr, Checkpoint: ck, Resume: rs}); err != nil {
		t.Fatal(err)
	}
	n := spanNames(tr)
	if sims := n["replay"] + n["live"]; sims != len(pts)-10 {
		t.Errorf("resumed plan simulated %d keys, want %d", sims, len(pts)-10)
	}
	labels := journalLabels(t, rest.Bytes())
	if len(labels) != len(pts)-10 {
		t.Fatalf("resumed plan journaled %d points, want %d", len(labels), len(pts)-10)
	}
	for _, l := range labels {
		if journaled[l[len(key)+1:]] {
			t.Errorf("resumed plan journaled %s again", l)
		}
	}
	for _, pt := range pts {
		if got, _ := memo.get(newStatsKey(w, opt.Refs, pt.Config)); got != pt.Stats {
			t.Errorf("%s: memo holds %+v, want %+v", pt.Label, got, pt.Stats)
		}
	}
}

// TestRunContextCheckpointDeterministic: two four-worker runs of one
// sweep write byte-identical checkpoint files, listing the points in
// configuration order however the workers finished them.
func TestRunContextCheckpointDeterministic(t *testing.T) {
	w := testWorkload(t)
	opt := groupOpt()
	opt.Workers = 4
	dir := t.TempDir()
	var files [2][]byte
	for run := range files {
		path := filepath.Join(dir, "run"+string(rune('a'+run)))
		ck, err := OpenCheckpointFile(path)
		if err != nil {
			t.Fatal(err)
		}
		opt.Checkpoint = ck
		if _, err := RunContext(context.Background(), w, opt); err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		if files[run], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("two four-worker runs wrote different checkpoint bytes")
	}
	key := SweepKey(w.Name, opt)
	var want []string
	for _, cfg := range Configs(opt) {
		want = append(want, key+" "+Label(cfg))
	}
	if got := journalLabels(t, files[0]); !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint order = %v, want configuration order %v", got, want)
	}
}

// TestExecuteStreamsLoneKey: a trace whose only work is one live key is
// streamed through its hierarchy — one live span, no trace-gen — over
// several chunks, to the Stats of a fresh core.System; and Memo.Stats,
// which executes such a plan on a miss, counts its lookups on the
// registry it is given.
func TestExecuteStreamsLoneKey(t *testing.T) {
	w := testWorkload(t)
	cfg := Configs(smallOpt())[1]
	for _, refs := range []uint64{2 * streamChunk, 2*streamChunk + 123} {
		var p Plan
		p.Add(w, refs, cfg)
		tr := span.NewTracer()
		var memo Memo
		if err := p.Execute(context.Background(), &memo, ExecOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		spans := tr.Snapshot()
		if len(spans) != 1 || spans[0].Name != "live" || spans[0].Attr("streamed") != "true" {
			t.Errorf("%d refs: spans %v, want one streamed live span", refs, spanNames(tr))
		}
		got, _ := memo.get(newStatsKey(w, refs, cfg))
		if want := core.NewSystem(cfg).Run(w.Stream(refs)); got != want {
			t.Errorf("%d refs: streamed Stats %+v, want %+v", refs, got, want)
		}
	}

	reg := obs.NewRegistry()
	var memo Memo
	for i := 0; i < 3; i++ {
		if _, err := memo.Stats(w, 1000, cfg, reg); err != nil {
			t.Fatal(err)
		}
	}
	c := reg.Snapshot().Counters
	if c[MetricMemoMisses] != 1 || c[MetricMemoHits] != 2 {
		t.Errorf("memo misses, hits = %d, %d; want 1, 2", c[MetricMemoMisses], c[MetricMemoHits])
	}
}
