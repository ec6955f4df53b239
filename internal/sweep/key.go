package sweep

// This file defines the canonical identity of evaluated work, shared by
// the checkpoint journal and internal/service's result store: SweepKey
// names one (workload, options) sweep, and Key names one evaluated
// point. Both subsystems key off these helpers so their notions of "the
// same evaluation" cannot drift.

import (
	"context"
	"fmt"

	"twolevel/internal/core"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
)

// SweepKey identifies one (workload, options) sweep: the workload name
// joined with the result-determining option fingerprint. It is the key
// checkpoint journals store points under.
func SweepKey(workload string, opt Options) string {
	return workload + "|" + opt.Fingerprint()
}

// Key identifies one evaluated point: the workload name, the
// result-determining subset of the options, and the full configuration
// geometry. Two evaluations with equal keys produce identical points,
// so Key is safe to use as a memoization key (it is how
// internal/service's result store addresses completed work).
//
// Unlike SweepKey, Key deliberately excludes the enumeration-only
// option fields (L1Sizes, L2Sizes, SingleLevelOnly, TwoLevelOnly) and
// the fields Configs materializes into each core.Config (L2Assoc,
// L2Policy, Policy, LineSize): those either do not affect a single
// point's result or are already captured by the configuration itself.
// Two sweeps that enumerate different size lists therefore share keys
// for the configurations they have in common — the property that lets
// an overlapping job reuse another job's cached points.
func Key(workload string, cfg core.Config, opt Options) string {
	o := opt.withDefaults()
	return fmt.Sprintf("%s|tech=%g/%d;off=%g;dual=%t;refs=%d|%s",
		workload, o.Tech.Scale, o.Tech.AddrBits, o.OffChipNS, o.DualPorted, o.Refs,
		configKey(cfg))
}

// configKey renders the complete simulatable identity of a hierarchy
// configuration — unlike Label's "x:y" display form, it pins line
// sizes, associativities, replacement policies, the two-level
// discipline, and the write mode, so distinct geometries can never
// collide under one key.
func configKey(cfg core.Config) string {
	k := fmt.Sprintf("l1i=%d/%d/%d/%s;l1d=%d/%d/%d/%s;wr=%d",
		cfg.L1I.Size, cfg.L1I.LineSize, cfg.L1I.Assoc, cfg.L1I.Policy,
		cfg.L1D.Size, cfg.L1D.LineSize, cfg.L1D.Assoc, cfg.L1D.Policy,
		int(cfg.Writes))
	if cfg.TwoLevel() {
		k += fmt.Sprintf(";l2=%d/%d/%d/%s;pol=%s",
			cfg.L2.Size, cfg.L2.LineSize, cfg.L2.Assoc, cfg.L2.Policy, cfg.Policy)
	}
	return k
}

// PointEvaluator is the single-configuration evaluation contract the
// service and cmd tools program against: repeated evaluations of one
// workload under one option set, each returning a priced Point. Two
// tiers satisfy it — *Evaluator here (exact trace simulation) and
// internal/model's analytical evaluator (reuse-distance prediction) —
// so a sweep or job can switch tiers without touching the pipeline
// around it.
type PointEvaluator interface {
	// Workload reports the workload the evaluator replays.
	Workload() spec.Workload
	// Options reports the evaluator's defaulted option set.
	Options() Options
	// Evaluate prices one configuration. Points carry the workload name
	// and the producing tier in Point.Evaluator.
	Evaluate(ctx context.Context, cfg core.Config) (Point, error)
}

// Evaluator performs repeated hardened single-configuration evaluations
// of one workload under one option set — the per-configuration semantics
// of RunContext (panic recovery, Options.Timeout, Options.Retries,
// retry events, and the panic/timeout/retry counters on Options.Metrics)
// without the sweep-level enumeration. The workload trace is generated
// once, on the first evaluation that misses Options.Memo, and replayed
// for every simulated configuration, exactly as RunContext replays it.
//
// An Evaluator is safe for concurrent use; internal/service's worker
// pool shares one per (job, workload).
type Evaluator struct {
	w    spec.Workload
	opt  Options
	met  *runMetrics
	refs *lazyTrace
}

var _ PointEvaluator = (*Evaluator)(nil)

// NewEvaluator prepares an evaluator for one workload. Only the
// per-configuration fields of opt participate (Timeout, Retries, Refs,
// Tech, OffChipNS, DualPorted, Metrics, Events, LineSize); the
// enumeration fields are ignored.
func NewEvaluator(w spec.Workload, opt Options) *Evaluator {
	opt = opt.withDefaults()
	return &Evaluator{
		w: w, opt: opt, met: newRunMetrics(opt.Metrics),
		refs: newLazyTrace(w, opt.Refs),
	}
}

// Workload reports the workload the evaluator replays.
func (e *Evaluator) Workload() spec.Workload { return e.w }

// Options reports the evaluator's defaulted option set. Cluster
// coordinators serialize the result-determining subset of these to
// remote workers, which rebuild an equivalent evaluator; Key computed
// from the returned options matches Key computed from the originals.
func (e *Evaluator) Options() Options { return e.opt }

// Evaluate runs one configuration with RunContext's per-configuration
// hardening and returns the priced point. Failures arrive as
// *ConfigError exactly as RunContext records them; a ctx cancellation is
// returned unwrapped. With Options.Trace set, each call contributes one
// "config" span (under Options.TraceParent) with its attempt children.
func (e *Evaluator) Evaluate(ctx context.Context, cfg core.Config) (Point, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cs := e.opt.Trace.Start(e.opt.TraceParent, "config",
		span.Attr{Key: "workload", Value: e.w.Name},
		span.Attr{Key: "label", Value: Label(cfg)})
	p, err := evaluateOne(ctx, e.w, e.refs, nil, cfg, e.opt, e.met, cs)
	if err != nil {
		cs.Annotate("error", err.Error())
	}
	cs.End()
	return p, err
}
