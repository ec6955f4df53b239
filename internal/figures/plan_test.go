package figures

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/sweep"
)

// stageSpans are the only spans a plan opens.
var stageSpans = map[string]bool{
	"plan": true, "trace-gen": true, "l1-pass": true, "replay": true,
	"live": true, "checkpoint-flush": true,
}

// TestPlanCoversEveryFigure is the plan-completeness test: after the
// plan of every figure, generating them all misses the stats memo and
// the trace-job results zero times. The plan itself emits no event,
// opens only stage spans, generates each distinct trace once and
// records each L1 group once.
func TestPlanCoversEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure plan in -short mode")
	}
	var events bytes.Buffer
	elog := obs.NewEventLog(&events)
	tr := span.NewTracer()
	reg := obs.NewRegistry()
	h := NewHarness(Config{Refs: 10_000, Events: elog, Trace: tr, Metrics: reg})
	if err := h.Plan(IDs()...); err != nil {
		t.Fatal(err)
	}
	if events.Len() != 0 {
		t.Errorf("the plan emitted events:\n%s", events.String())
	}
	traces, groups := map[string]bool{}, map[string]bool{}
	for _, d := range tr.Snapshot() {
		if !stageSpans[d.Name] {
			t.Errorf("the plan opened a %q span", d.Name)
		}
		switch d.Name {
		case "trace-gen":
			traces[d.Attr("workload")] = true
		case "l1-pass":
			id := d.Attr("workload") + " " + d.Attr("seed") + " " + d.Attr("l1")
			if groups[id] {
				t.Errorf("L1 group %s recorded twice", id)
			}
			groups[id] = true
		}
	}
	// Seven workloads plus extseeds' three reseeded gcc1 traces; the
	// reseeded ones keep gcc1's name, so count trace-gen spans instead.
	if n := spanCount(tr, "trace-gen"); n != 10 {
		t.Errorf("%d trace-gen spans, want 10", n)
	}
	if len(traces) != 7 {
		t.Errorf("traces generated for %d workloads, want 7", len(traces))
	}
	// The sweeps' 63 L1 geometries less each workload's 256KB one, and
	// the 8KB geometry on each reseeded trace. The 256KB single-level
	// keys, extline's 32- and 64-byte-line keys and the reseeded traces'
	// 32KB keys are alone in their geometry and run live.
	if len(groups) != 59 {
		t.Errorf("%d L1 groups recorded, want 59", len(groups))
	}
	if n := spanCount(tr, "live"); n != 2+12+7 {
		t.Errorf("%d live spans, want 21: 2 write-through or inclusive keys, 12 lone keys, 7 trace jobs", n)
	}
	misses := func() uint64 { return reg.Snapshot().Counters[sweep.MetricMemoMisses] }
	if n := misses(); n != 0 {
		t.Errorf("the plan counted %d memo misses; it requests nothing", n)
	}
	gens := spanCount(tr, "trace-gen")
	for _, id := range IDs() {
		if _, err := h.ByID(id); err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}
	if n := misses(); n != 0 {
		t.Errorf("the figure pass missed the stats memo %d times after the plan", n)
	}
	// A trace job the plan had not run would generate its trace again.
	if n := spanCount(tr, "trace-gen") - gens; n != 0 {
		t.Errorf("the figure pass generated %d traces after the plan", n)
	}
}

func spanCount(tr *span.Tracer, name string) int { return spanNames(tr)[name] }

// spanNames counts a tracer's spans by name.
func spanNames(tr *span.Tracer) map[string]int {
	n := map[string]int{}
	for _, d := range tr.Snapshot() {
		n[d.Name]++
	}
	return n
}

// TestPlanNarrowsToFigure: planning one figure simulates that figure's
// keys and nothing else — Figure 5 is gcc1's 45-configuration sweep.
func TestPlanNarrowsToFigure(t *testing.T) {
	tr := span.NewTracer()
	h := NewHarness(Config{Refs: 10_000, Trace: tr})
	if err := h.Plan("fig5"); err != nil {
		t.Fatal(err)
	}
	if n := spanCount(tr, "trace-gen"); n != 1 {
		t.Errorf("%d trace-gen spans, want 1", n)
	}
	if n := spanCount(tr, "replay") + spanCount(tr, "live"); n != 45 {
		t.Errorf("fig5's plan simulated %d keys, want 45", n)
	}
	if err := h.Plan("nope"); err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("Plan of an unknown figure: %v", err)
	}
}

// TestModelOnlyFiguresPlanNothing: on a fresh harness, ByID of a figure
// that uses no trace plans and simulates nothing, so it opens no span.
func TestModelOnlyFiguresPlanNothing(t *testing.T) {
	for id := range modelOnly {
		tr := span.NewTracer()
		h := NewHarness(Config{Refs: 10_000, Trace: tr})
		if _, err := h.ByID(id); err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if got := spanNames(tr); len(got) != 0 {
			t.Errorf("ByID(%s) on a fresh harness opened spans %v", id, got)
		}
	}
}

// TestPlanCheckpointResume: a harness that journals its plan and is then
// resumed from the journal simulates nothing the journal covers, writes
// no point twice, and renders every figure byte-identically.
func TestPlanCheckpointResume(t *testing.T) {
	ids := []string{"fig3", "fig5", "fig10", "extmr"}
	render := func(h *Harness) string {
		var sb strings.Builder
		for _, id := range ids {
			f, err := h.ByID(id)
			if err != nil {
				t.Fatalf("ByID(%s): %v", id, err)
			}
			if err := Render(&sb, f); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}
	path := filepath.Join(t.TempDir(), "exp.journal")
	ck, err := sweep.OpenCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := NewHarness(Config{Refs: 10_000, Checkpoint: ck})
	if err := first.Plan(ids...); err != nil {
		t.Fatal(err)
	}
	want := render(first)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := sweep.ResumeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// fig3 sweeps all 45 configurations of its four workloads (and
	// plots the single-level ones), fig5 shares gcc1's sweep, and fig10
	// adds gcc1's dual-ported sweep.
	if got, want := rs.Len(), 4*45+45; got != want {
		t.Errorf("journal holds %d points, want %d", got, want)
	}
	if ck, err = sweep.OpenCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	tr := span.NewTracer()
	resumed := NewHarness(Config{Refs: 10_000, Checkpoint: ck, Resume: rs, Trace: tr})
	if err := resumed.Plan(ids...); err != nil {
		t.Fatal(err)
	}
	if got := render(resumed); got != want {
		t.Errorf("resumed rendering differs:\n%s\nwant:\n%s", got, want)
	}
	// The journal covers every key but extmr's cells on the three
	// workloads fig3 does not sweep, so those 27 are all it simulates.
	sims := 0
	for _, d := range tr.Snapshot() {
		if d.Name != "replay" && d.Name != "live" {
			continue
		}
		sims++
		switch d.Attr("workload") {
		case "li", "eqntott", "tomcatv":
		default:
			t.Errorf("resumed plan simulated %s %s, which the journal covers", d.Attr("workload"), d.Attr("config"))
		}
	}
	if sims != 3*9 {
		t.Errorf("resumed plan simulated %d keys, want 27", sims)
	}
	if _, err := sweep.ResumeFile(path); err != nil {
		t.Errorf("journal after the resumed run: %v", err)
	}
}

// TestPlanCancelled: a harness whose context is done reports the
// cancellation from ByID and simulates nothing — neither in the plan
// nor on the figure pass's misses.
func TestPlanCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := span.NewTracer()
	h := NewHarness(Config{Refs: 10_000, Context: ctx, Trace: tr})
	for _, id := range []string{"extmr", "extseeds", "extstream"} {
		if _, err := h.ByID(id); !errors.Is(err, context.Canceled) {
			t.Fatalf("ByID(%s) on a cancelled harness: %v", id, err)
		}
	}
	if n := spanCount(tr, "trace-gen"); n != 0 {
		t.Errorf("a cancelled harness generated %d traces", n)
	}
}
