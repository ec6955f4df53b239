package sweep

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"twolevel/internal/core"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

// ConfigError describes one configuration whose evaluation failed — a
// recovered panic, an invalid configuration, or a per-configuration
// timeout. A sweep with failed configurations still returns every point
// that completed; the ConfigErrors arrive joined in the error value.
type ConfigError struct {
	// Label is the configuration's "x:y" label.
	Label string
	// Workload names the workload being swept.
	Workload string
	// Cause is the underlying failure.
	Cause error
}

// Error renders the failure with its configuration context.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sweep: configuration %s (workload %s): %v", e.Label, e.Workload, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Cause }

// ProgressEvent reports one configuration's outcome to Options.Progress.
type ProgressEvent struct {
	// Done counts configurations finished so far (including skips and
	// failures); Total is the size of the sweep.
	Done, Total int
	// Label is the configuration just finished.
	Label string
	// Err is the configuration's failure, nil on success.
	Err error
	// Skipped reports that the configuration was satisfied from
	// Options.Resume without re-evaluation.
	Skipped bool
}

// evalTestHook, when non-nil, runs at the start of every configuration
// evaluation attempt. Tests use it to inject panics and count retries.
var evalTestHook func(core.Config)

// ChaosSiteEvaluate is the chaos-injection site fired at the start of
// every evaluation attempt (inside the panic guard and the
// per-configuration timeout), so injected panics, delays, and errors
// flow through exactly the recovery machinery a real failure would.
const ChaosSiteEvaluate = "sweep.evaluate"

// panicError marks a failure that was a recovered panic, so retry
// accounting can distinguish panics from timeouts while the rendered
// message stays "panic: <value>".
type panicError struct{ v any }

func (e panicError) Error() string { return fmt.Sprintf("panic: %v", e.v) }

// RunContext is Run with operational hardening for long-running and
// service use:
//
//   - it honors ctx cancellation and deadlines, returning promptly with
//     the completed points and an error wrapping ctx.Err();
//   - each configuration is evaluated under recover(), so one panicking
//     configuration degrades the sweep into a *ConfigError instead of
//     crashing it;
//   - Options.Timeout bounds each configuration and Options.Retries
//     re-attempts transient failures;
//   - Options.Checkpoint journals completed points and Options.Resume
//     skips configurations a previous journal already covers;
//   - Options.Progress observes completions.
//
// On success the error is nil and the points cover the full
// configuration space, sorted by area exactly as Run sorts them. With
// failed configurations the completed points are returned alongside the
// joined ConfigErrors.
func RunContext(ctx context.Context, w spec.Workload, opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	cfgs := Configs(opt)
	total := len(cfgs)
	key := SweepKey(w.Name, opt)
	resumed := opt.Resume.forKey(key)
	met := newRunMetrics(opt.Metrics)
	met.total.Add(int64(total))
	met.workers.Set(int64(opt.Workers))
	opt.Events.Emit(obs.Event{
		Type: obs.EventSweepStart, Workload: w.Name,
		Fingerprint: opt.Fingerprint(), Total: total,
	})
	sw := opt.Trace.Start(opt.TraceParent, "sweep",
		span.Attr{Key: "workload", Value: w.Name},
		span.Attr{Key: "fingerprint", Value: opt.Fingerprint()},
		span.Attr{Key: "total", Value: strconv.Itoa(total)})

	var (
		mu      sync.Mutex
		points  = make([]Point, total)
		have    = make([]bool, total)
		errs    []error
		done    int
		skipped int
		failed  int
	)
	report := func(ev ProgressEvent) {
		if opt.Progress != nil {
			opt.Progress(ev)
		}
	}

	type job struct {
		i   int
		cfg core.Config
		l1  *l1Group
	}
	var pending []job
	for i, cfg := range cfgs {
		label := Label(cfg)
		if p, ok := resumed[label]; ok {
			points[i], have[i] = p, true
			// A resumed point's Stats are as good as a fresh simulation's,
			// so later sweeps sharing its stats key only re-price them.
			opt.Memo.store(newStatsKey(w, opt.Refs, cfg), p.Stats)
			done++
			skipped++
			met.skipped.Inc()
			opt.Events.Emit(obs.Event{
				Type: obs.EventConfigSkipped, Workload: w.Name, Label: label,
				Done: done, Total: total,
			})
			// Resumed configurations appear in the trace as instant
			// config spans, so a resumed run's tree is still complete.
			rs := sw.Child("config", span.Attr{Key: "label", Value: label})
			rs.Annotate("outcome", "resumed")
			rs.End()
			report(ProgressEvent{Done: done, Total: total, Label: label, Skipped: true})
			continue
		}
		pending = append(pending, job{i: i, cfg: cfg})
	}
	pendingCfgs := make([]core.Config, len(pending))
	for n, j := range pending {
		pendingCfgs[n] = j.cfg
	}
	for n, g := range newL1Groups(pendingCfgs) {
		pending[n].l1 = g
	}

	// The trace is generated on the first memo miss, so a sweep answered
	// entirely from Options.Memo generates none.
	refs := newLazyTrace(w, opt.Refs)
	if len(pending) > 0 && ctx.Err() == nil {
		met.queueDepth.Set(int64(len(pending)))
		jobs := make(chan job)
		var wg sync.WaitGroup
		for n := 0; n < min(opt.Workers, len(pending)); n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					met.queueDepth.Add(-1)
					label := Label(j.cfg)
					opt.Events.Emit(obs.Event{Type: obs.EventConfigStart, Workload: w.Name, Label: label})
					cs := sw.Child("config", span.Attr{Key: "label", Value: label})
					start := time.Now()
					p, err := evaluateOne(ctx, w, refs, j.l1, j.cfg, opt, met, cs)
					dur := time.Since(start)
					j.l1.done() // the group's last configuration frees its record
					mu.Lock()
					done++
					switch {
					case err == nil:
						points[j.i], have[j.i] = p, true
						met.done.Inc()
						met.cfgSeconds.Observe(dur.Seconds())
						cs.Annotate("outcome", "ok")
						opt.Events.Emit(obs.Event{
							Type: obs.EventConfigDone, Workload: w.Name, Label: label,
							Done: done, Total: total, DurNS: dur.Nanoseconds(),
							Area: p.AreaRbe, TPI: p.TPINS,
						})
						if opt.Checkpoint != nil {
							fl := cs.Child("checkpoint-flush")
							ckStart := time.Now()
							cerr := opt.Checkpoint.Record(key, p)
							ckDur := time.Since(ckStart)
							fl.End()
							met.ckptSeconds.Observe(ckDur.Seconds())
							if cerr != nil {
								errs = append(errs, fmt.Errorf("sweep: checkpointing %s: %w", p.Label, cerr))
							} else {
								opt.Events.Emit(obs.Event{
									Type: obs.EventCheckpointFlush, Workload: w.Name,
									Label: label, DurNS: ckDur.Nanoseconds(),
								})
							}
						}
					case ctx.Err() != nil:
						// The whole run was cancelled mid-evaluation;
						// that is reported once below, not per config.
						cs.Annotate("outcome", "cancelled")
					default:
						failed++
						met.failures.Inc()
						errs = append(errs, err)
						cs.Annotate("outcome", "failed")
						cs.Annotate("error", err.Error())
						opt.Events.Emit(obs.Event{
							Type: obs.EventConfigError, Workload: w.Name, Label: label,
							Done: done, Total: total, Err: err.Error(),
						})
					}
					cs.End()
					report(ProgressEvent{Done: done, Total: total, Label: label, Err: err})
					mu.Unlock()
				}
			}()
		}
	feed:
		for _, j := range pending {
			select {
			case jobs <- j:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		met.queueDepth.Set(0)
	}

	completed := make([]Point, 0, total)
	for i, ok := range have {
		if ok {
			completed = append(completed, points[i])
		}
	}
	SortByArea(completed)
	doneEv := obs.Event{
		Type: obs.EventSweepDone, Workload: w.Name,
		Done: done, Total: total, Skipped: skipped, Failed: failed,
	}
	manifest := obs.Event{
		Type: obs.EventRunManifest, Workload: w.Name,
		Fingerprint: opt.Fingerprint(),
		Done:        done, Total: total, Skipped: skipped, Failed: failed,
	}
	sw.Annotate("done", strconv.Itoa(done))
	sw.Annotate("skipped", strconv.Itoa(skipped))
	sw.Annotate("failed", strconv.Itoa(failed))
	if err := ctx.Err(); err != nil {
		sw.Annotate("interrupted", err.Error())
		sw.End()
		doneEv.Err = err.Error()
		manifest.Err = err.Error()
		opt.Events.Emit(doneEv)
		opt.Events.Emit(manifest)
		return completed, fmt.Errorf("sweep: %s interrupted after %d/%d configurations: %w",
			w.Name, len(completed), total, err)
	}
	sw.End()
	opt.Events.Emit(doneEv)
	opt.Events.Emit(manifest)
	return completed, errors.Join(errs...)
}

// evaluateOne evaluates a single configuration with panic recovery, the
// per-configuration timeout, and bounded retries, wrapping any final
// failure in a ConfigError. A parent-context cancellation is returned
// unwrapped (it is a property of the run, not of the configuration).
// Every attempt appears in the trace as its own child of parent, so
// retries show up as sibling "attempt" spans. refs yields the workload's
// trace; it is read only when the Stats must be simulated. g is cfg's L1
// group (nil simulates live).
func evaluateOne(ctx context.Context, w spec.Workload, refs *lazyTrace, g *l1Group, cfg core.Config, opt Options, met *runMetrics, parent *span.Span) (Point, error) {
	var err error
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		as := parent.Child("attempt", span.Attr{Key: "attempt", Value: strconv.Itoa(attempt + 1)})
		var p Point
		p, err = evaluateGuarded(ctx, w, refs, g, cfg, opt, met, as)
		if err == nil {
			as.End()
			p.Workload = w.Name
			return p, nil
		}
		as.Annotate("error", err.Error())
		if ctx.Err() != nil {
			as.End()
			return Point{}, err
		}
		var pe panicError
		cause := "error"
		switch {
		case errors.As(err, &pe):
			met.panics.Inc()
			cause = "panic"
		case errors.Is(err, context.DeadlineExceeded):
			// The parent context is live (checked above), so the deadline
			// that fired was the per-configuration one.
			met.timeouts.Inc()
			cause = "timeout"
		}
		if attempt < opt.Retries {
			met.retries.Inc()
			as.Annotate("retry_cause", cause)
			opt.Events.Emit(obs.Event{
				Type: obs.EventConfigRetry, Workload: w.Name, Label: Label(cfg),
				Attempt: attempt + 1, Err: err.Error(),
			})
		}
		as.End()
	}
	return Point{}, &ConfigError{Label: Label(cfg), Workload: w.Name, Cause: err}
}

// evaluateGuarded is one evaluation attempt: panics become errors and the
// per-configuration timeout is applied. The Stats come from Options.Memo
// when it holds them; otherwise the simulation proper is traced as a
// "simulate" child of the attempt span (ended even when the evaluation
// panics, so the trace stays complete) and its Stats are memoized. The
// attempt span records where its Stats came from as stats=memo or
// stats=simulated and, when simulated, where its L1 stage came from as
// l1=recorded, l1=replayed or l1=live (see simulateIn).
func evaluateGuarded(ctx context.Context, w spec.Workload, refs *lazyTrace, g *l1Group, cfg core.Config, opt Options, met *runMetrics, sp *span.Span) (p Point, err error) {
	key := newStatsKey(w, opt.Refs, cfg)
	stats, hit := opt.Memo.lookup(key)
	var tr []trace.Ref
	var sim *span.Span
	if hit {
		met.memoHits.Inc()
	} else {
		if opt.Memo != nil {
			met.memoMisses.Inc()
		}
		tr = refs.get(sp)
		sim = sp.Child("simulate", span.Attr{Key: "refs", Value: strconv.Itoa(len(tr))})
	}
	defer func() {
		if r := recover(); r != nil {
			err = panicError{v: r}
		}
		sim.End()
	}()
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	if evalTestHook != nil {
		evalTestHook(cfg)
	}
	if err := opt.Chaos.Hit(ChaosSiteEvaluate); err != nil {
		return Point{}, err
	}
	source := "memo"
	if !hit {
		var l1 string
		if stats, l1, err = simulateIn(ctx, g, tr, cfg, opt.Metrics, sim); err != nil {
			return Point{}, err
		}
		opt.Memo.store(key, stats)
		source = "simulated"
		sp.Annotate("l1", l1)
	}
	sp.Annotate("stats", source)
	return priceStats(cfg, opt, stats)
}
