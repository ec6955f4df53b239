package cluster

// This file is the cluster worker: it registers with a coordinator over
// HTTP, heartbeats, pulls leases of (workload, configuration) points,
// evaluates them through the hardened sweep.Evaluator (panic isolation,
// per-configuration timeout/retry — the identical code path a local
// evaluation takes), and pushes results back. Every RPC retries with
// backoff; a worker that cannot push its results abandons the lease and
// lets the coordinator steal it, because correctness never depends on a
// worker surviving. Workload traces are generated once per (workload,
// options) and replayed across leases, exactly as the in-process pool
// replays them.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twolevel/internal/chaos"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// ID names the worker (default "host-pid"). IDs must be unique per
	// coordinator; reusing one resumes that identity.
	ID string
	// Concurrency is the number of parallel lease loops — independent
	// evaluation pipelines sharing one registration and heartbeat
	// (default GOMAXPROCS).
	Concurrency int
	// MaxLeasePoints caps how many points each lease requests (default:
	// the coordinator's limit).
	MaxLeasePoints int
	// PollInterval is the idle wait after an empty lease response
	// (default 200ms; the coordinator long-polls on top of it).
	PollInterval time.Duration
	// Client is the HTTP client (default: 30s timeout).
	Client *http.Client

	// Backoff shapes the reconnect schedule after the circuit breaker
	// opens (defaults per Backoff's fields: 100ms base, 5s cap, ×2
	// growth, 50% jitter; Seed 0 derives from the clock so a fleet's
	// probes spread).
	Backoff Backoff
	// FailThreshold is how many consecutive transport-level RPC failures
	// open the circuit breaker (default 3). An exhausted completion push
	// opens it immediately regardless.
	FailThreshold int
	// BufferLimit caps the completion pushes held locally while the
	// coordinator is unreachable (default 64). Overflow drops the oldest
	// push — not lost work: the coordinator's orphan grace steals and
	// re-runs those points.
	BufferLimit int

	// Metrics, Events, and Chaos follow the obs nil-safety contract.
	// Chaos fires at the ChaosSiteWorker* sites and is also handed to
	// every evaluation (sweep.ChaosSiteEvaluate).
	Metrics *obs.Registry
	Events  *obs.EventLog
	Chaos   *chaos.Injector
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 200 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.BufferLimit <= 0 {
		c.BufferLimit = 64
	}
	return c
}

// Circuit breaker states, matching the cluster_worker_circuit_state
// gauge values.
const (
	circuitClosed   = 0
	circuitHalfOpen = 1
	circuitOpen     = 2
)

func circuitName(s int) string {
	switch s {
	case circuitHalfOpen:
		return "half-open"
	case circuitOpen:
		return "open"
	default:
		return "closed"
	}
}

// Worker is one cluster evaluation node. NewWorker builds one; Run
// drives it until the context is cancelled.
type Worker struct {
	cfg WorkerConfig
	met *workerMetrics
	inj *chaos.Injector

	// Registration has one path: at most one register RPC is in flight,
	// and callers that arrive meanwhile wait for its outcome. regMu
	// guards reg and the heartbeat interval the last registration set.
	regMu     sync.Mutex
	reg       *registration
	heartbeat time.Duration

	// registered and liveLoops back Ready: the /readyz probe answers
	// ready once registration succeeded and every lease loop is running.
	registered atomic.Bool
	liveLoops  atomic.Int64
	// lastFeedFP fingerprints the last metrics snapshot successfully
	// piggybacked on a heartbeat; only the heartbeat loop touches it.
	lastFeedFP uint32

	mu    sync.Mutex
	evals map[string]*sweep.Evaluator // (workload|options) → evaluator

	// Failover state, under cmu. The worker survives coordinator outages
	// rather than dying with them: consecutive transport failures open
	// the circuit (RPCs stop, evaluation of already-held leases
	// continues, completion pushes buffer locally), and a dedicated
	// reconnect loop probes on the jittered backoff schedule until
	// re-registration — carrying every in-flight unit key so a restarted
	// coordinator re-attaches the work — and the buffer flush succeed.
	cmu         sync.Mutex
	circuit     int
	consecFails int
	buffered    []completeRequest
	inflight    map[string][]string // lease id → unit keys being evaluated
	reconnects  uint64
	reconnectCh chan struct{}
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{
		cfg:         cfg,
		met:         newWorkerMetrics(cfg.Metrics),
		inj:         cfg.Chaos,
		evals:       make(map[string]*sweep.Evaluator),
		inflight:    make(map[string][]string),
		reconnectCh: make(chan struct{}, 1),
	}
}

// ID reports the worker's identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Ready reports whether the worker is serving: registered with its
// coordinator and with every lease loop running. It is the /readyz
// probe behind obs.MuxOptions.Ready, so orchestration (and the smoke
// script) can wait on worker readiness instead of sleeping.
func (w *Worker) Ready() error {
	if s := w.circuitState(); s != circuitClosed {
		f := w.Failover()
		return fmt.Errorf("cluster: coordinator circuit %s (%d pushes buffered)",
			circuitName(s), f.BufferedPushes)
	}
	if !w.registered.Load() {
		return errors.New("cluster: not registered with coordinator")
	}
	if n := w.liveLoops.Load(); int(n) < w.cfg.Concurrency {
		return fmt.Errorf("cluster: %d/%d lease loops live", n, w.cfg.Concurrency)
	}
	return nil
}

// WorkerFailoverStatus is the worker's failover surface: the /readyz
// detail block (obs.MuxOptions.ReadyDetail) and anything else that wants
// to watch an outage ride out.
type WorkerFailoverStatus struct {
	Circuit        string `json:"circuit"` // closed | half-open | open
	BufferedPushes int    `json:"buffered_pushes"`
	BufferedPoints int    `json:"buffered_points"`
	InflightLeases int    `json:"inflight_leases"`
	Reconnects     uint64 `json:"reconnects_total"`
}

// Failover snapshots the worker's failover state.
func (w *Worker) Failover() WorkerFailoverStatus {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	st := WorkerFailoverStatus{
		Circuit:        circuitName(w.circuit),
		BufferedPushes: len(w.buffered),
		InflightLeases: len(w.inflight),
		Reconnects:     w.reconnects,
	}
	for _, req := range w.buffered {
		st.BufferedPoints += len(req.Results)
	}
	return st
}

func (w *Worker) circuitState() int {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.circuit
}

// rpcOK records a successful coordinator contact, resetting the failure
// streak. (Closing an open circuit is the reconnect loop's job — a
// success it observes — so ordinary RPC paths never race it.)
func (w *Worker) rpcOK() {
	w.cmu.Lock()
	w.consecFails = 0
	w.cmu.Unlock()
}

// rpcFailed records a transport-level coordinator failure; crossing the
// threshold opens the circuit.
func (w *Worker) rpcFailed() {
	w.cmu.Lock()
	w.consecFails++
	if w.circuit == circuitClosed && w.consecFails >= w.cfg.FailThreshold {
		w.tripLocked()
	}
	w.cmu.Unlock()
}

// tripLocked opens the circuit and wakes the reconnect loop. Caller
// holds w.cmu.
func (w *Worker) tripLocked() {
	if w.circuit == circuitOpen {
		return
	}
	w.circuit = circuitOpen
	w.met.circuitState.Set(circuitOpen)
	w.registered.Store(false)
	w.met.connected.Set(0)
	select {
	case w.reconnectCh <- struct{}{}:
	default:
	}
}

// trackLease remembers a pulled lease's unit keys so register calls can
// report them in flight; untrackLease forgets them once their results
// were delivered (or buffered, which keeps the keys via the buffer).
func (w *Worker) trackLease(leaseID string, units []workUnit) {
	keys := make([]string, 0, len(units))
	for _, u := range units {
		keys = append(keys, u.Key)
	}
	w.cmu.Lock()
	w.inflight[leaseID] = keys
	w.cmu.Unlock()
}

func (w *Worker) untrackLease(leaseID string) {
	w.cmu.Lock()
	delete(w.inflight, leaseID)
	w.cmu.Unlock()
}

// inflightKeys is every unit key the worker is responsible for: leases
// still evaluating plus results buffered awaiting flush.
func (w *Worker) inflightKeys() []string {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	var keys []string
	for _, ks := range w.inflight {
		keys = append(keys, ks...)
	}
	for _, req := range w.buffered {
		for _, res := range req.Results {
			keys = append(keys, res.Key)
		}
	}
	return keys
}

// bufferPush parks a completion push locally (the coordinator is gone or
// going) and opens the circuit. The lease's keys move from the inflight
// table to the buffer — inflightKeys reports them either way.
func (w *Worker) bufferPush(req completeRequest) {
	w.cmu.Lock()
	delete(w.inflight, req.LeaseID)
	w.buffered = append(w.buffered, req)
	if len(w.buffered) > w.cfg.BufferLimit {
		w.buffered = w.buffered[1:]
		w.met.pushFailures.Inc()
	}
	w.met.buffered.Set(int64(len(w.buffered)))
	w.tripLocked()
	w.cmu.Unlock()
}

// Run registers, heartbeats, and evaluates leases until ctx is
// cancelled, returning nil on a clean stop. A chaos Panic rule at
// ChaosSiteWorkerCrash propagates out of Run (after internal goroutines
// are stopped), modelling the process dying mid-lease.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops heartbeats even when a lease loop panics

	if err := w.register(ctx); err != nil {
		return err
	}
	w.registered.Store(true)
	defer w.registered.Store(false)
	w.met.connected.Set(1)
	defer w.met.connected.Set(0)

	go w.heartbeatLoop(ctx)
	go w.reconnectLoop(ctx)

	// Lease loops run as goroutines so Concurrency scales the node; a
	// panic in any loop (evaluation bugs are isolated by the evaluator,
	// so in practice: an injected crash) is re-raised from Run itself
	// after the others are cancelled — one loop dying kills the worker,
	// exactly like a process crash.
	panics := make(chan any, w.cfg.Concurrency)
	var loops sync.WaitGroup
	for i := 0; i < w.cfg.Concurrency; i++ {
		loops.Add(1)
		go func() {
			defer loops.Done()
			w.liveLoops.Add(1)
			defer w.liveLoops.Add(-1)
			defer func() {
				if r := recover(); r != nil {
					select {
					case panics <- r:
					default:
					}
					cancel()
				}
			}()
			w.leaseLoop(ctx)
		}()
	}
	loops.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
	return nil
}

// registration is one register RPC in flight; err is its outcome,
// readable once done is closed.
type registration struct {
	done chan struct{}
	err  error
}

// register announces the worker, retrying with backoff until ctx is
// done, and learns the heartbeat interval.
func (w *Worker) register(ctx context.Context) error {
	backoff := 50 * time.Millisecond
	for {
		err := w.inj.Hit(ChaosSiteWorkerRegister)
		if err == nil {
			if err = w.registerOnce(ctx); err == nil {
				return nil
			}
		}
		w.met.rpcRetries.Inc()
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: registering with %s: %w (last: %v)", w.cfg.Coordinator, ctx.Err(), err)
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// registerOnce sends one register RPC, or, when one is already in
// flight (the heartbeat loop and every lease loop see the same 404 after
// a coordinator restart), waits for that one and shares its outcome.
func (w *Worker) registerOnce(ctx context.Context) error {
	w.regMu.Lock()
	if r := w.reg; r != nil {
		w.regMu.Unlock()
		select {
		case <-r.done:
			return r.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	r := &registration{done: make(chan struct{})}
	w.reg = r
	w.regMu.Unlock()

	// Every registration — first boot, a 404-triggered re-register, or a
	// reconnect probe — reports the keys in flight, so a restarted
	// coordinator reclaims its journal-replayed orphans immediately.
	var resp registerResponse
	_, r.err = w.post(ctx, "/cluster/v1/register",
		registerRequest{ID: w.cfg.ID, InflightKeys: w.inflightKeys()}, &resp)

	w.regMu.Lock()
	if r.err == nil {
		w.heartbeat = time.Duration(resp.HeartbeatMS) * time.Millisecond
		if w.heartbeat <= 0 {
			w.heartbeat = 2 * time.Second
		}
	}
	w.reg = nil
	w.regMu.Unlock()
	close(r.done)
	return r.err
}

// heartbeatInterval reports the interval the last registration set.
func (w *Worker) heartbeatInterval() time.Duration {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	return w.heartbeat
}

// heartbeatLoop beats at the coordinator-assigned interval. A 404 means
// the coordinator no longer knows us (restart, or we were declared
// dead): re-register and carry on.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	interval := w.heartbeatInterval()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if d := w.heartbeatInterval(); d != interval {
			interval = d // a re-registration changed it
			t.Reset(d)
		}
		if w.circuitState() != circuitClosed {
			continue // outage: the reconnect loop owns coordinator contact
		}
		if err := w.inj.Hit(ChaosSiteWorkerHeartbeat); err != nil {
			continue // beat dropped on the floor
		}
		req := heartbeatRequest{ID: w.cfg.ID}
		fp, snap := w.feedPayload()
		req.Metrics = snap
		code, err := w.post(ctx, "/cluster/v1/heartbeat", req, nil)
		switch {
		case code == http.StatusNotFound:
			// The coordinator is alive but doesn't know us (restarted, or
			// we were declared dead): re-register, reporting in-flight keys.
			w.rpcOK()
			w.register(ctx) //nolint:errcheck // retried forever; ctx exit caught above
		case err != nil:
			w.met.rpcRetries.Inc()
			if code == 0 {
				w.rpcFailed()
			}
		default:
			w.rpcOK()
			if snap != nil {
				// Only a delivered snapshot advances the fingerprint, so a
				// dropped beat re-sends rather than silently skipping a state.
				w.lastFeedFP = fp
			}
		}
	}
}

// reconnectLoop rides out coordinator outages: woken by the circuit
// opening, it probes on the jittered exponential backoff schedule; each
// probe re-registers with the in-flight keys and flushes the buffered
// completion pushes (idempotent, content-addressed — re-delivery is a
// no-op), and only a fully successful probe closes the circuit.
func (w *Worker) reconnectLoop(ctx context.Context) {
	bo := NewBackoffSchedule(w.cfg.Backoff)
	for {
		select {
		case <-ctx.Done():
			return
		case <-w.reconnectCh:
		}
		bo.Reset()
		for ctx.Err() == nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(bo.Next()):
			}
			w.cmu.Lock()
			w.circuit = circuitHalfOpen
			w.cmu.Unlock()
			w.met.circuitState.Set(circuitHalfOpen)
			err := w.inj.Hit(ChaosSiteWorkerReconnect)
			if err == nil {
				err = w.reconnect(ctx)
			}
			if err != nil {
				w.met.rpcRetries.Inc()
				w.cmu.Lock()
				w.circuit = circuitOpen
				w.cmu.Unlock()
				w.met.circuitState.Set(circuitOpen)
				continue
			}
			break
		}
	}
}

// reconnect is one reconnection probe: register (with in-flight keys),
// then flush the buffer oldest-first. Any failure aborts the probe; the
// flushed prefix stays flushed (safe — completion is idempotent).
func (w *Worker) reconnect(ctx context.Context) error {
	if err := w.registerOnce(ctx); err != nil {
		return err
	}
	for {
		w.cmu.Lock()
		if len(w.buffered) == 0 {
			w.cmu.Unlock()
			break
		}
		req := w.buffered[0]
		w.cmu.Unlock()
		var cr completeResponse
		if _, err := w.post(ctx, "/cluster/v1/complete", req, &cr); err != nil {
			return err
		}
		w.cmu.Lock()
		w.buffered = w.buffered[1:]
		w.met.buffered.Set(int64(len(w.buffered)))
		w.cmu.Unlock()
	}
	w.cmu.Lock()
	w.circuit = circuitClosed
	w.consecFails = 0
	w.reconnects++
	w.cmu.Unlock()
	w.met.circuitState.Set(circuitClosed)
	w.met.reconnects.Inc()
	w.registered.Store(true)
	w.met.connected.Set(1)
	w.cfg.Events.Emit(obs.Event{Type: EventWorkerReconnected, Worker: w.cfg.ID})
	return nil
}

// feedPayload decides the heartbeat's federation piggyback: the
// registry snapshot when it changed since the last delivered one (a
// crc32 over its JSON decides), nil otherwise — so steady-state beats
// stay as small as before federation existed.
func (w *Worker) feedPayload() (uint32, *obs.Snapshot) {
	if w.cfg.Metrics == nil {
		return 0, nil
	}
	snap := w.cfg.Metrics.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		return 0, nil
	}
	fp := crc32.ChecksumIEEE(b)
	if fp == w.lastFeedFP {
		return fp, nil
	}
	return fp, &snap
}

// leaseLoop pulls, evaluates, and completes leases until ctx is done.
func (w *Worker) leaseLoop(ctx context.Context) {
	for ctx.Err() == nil {
		lease, ok := w.pullLease(ctx)
		if !ok {
			select {
			case <-ctx.Done():
			case <-time.After(w.cfg.PollInterval):
			}
			continue
		}
		w.met.leases.Inc()
		w.trackLease(lease.LeaseID, lease.Units)
		// Each lease gets its own tracer; its spans travel back inside the
		// completion push (with the tracer's wall-clock epoch) and are
		// grafted under the owning jobs' remote-evaluate spans on the
		// coordinator. A crashed worker never pushes, so its spans die
		// with it and the stitched trace stays orphan-free.
		tr := span.NewTracer()
		results := make([]resultWire, 0, len(lease.Units))
		for _, u := range lease.Units {
			sp := tr.Start(nil, "worker-evaluate",
				span.Attr{Key: "key", Value: u.Key},
				span.Attr{Key: "workload", Value: u.Workload},
				span.Attr{Key: "worker", Value: w.cfg.ID})
			res := w.evaluate(ctx, u, sp)
			if res.Error != "" {
				sp.Annotate("outcome", "failed")
				sp.Annotate("error", res.Error)
			} else {
				sp.Annotate("outcome", "ok")
			}
			sp.End()
			results = append(results, res)
			// The deterministic stand-in for kill -9: a Panic rule here
			// kills the worker with this lease's results unpushed.
			if err := w.inj.Hit(ChaosSiteWorkerCrash); err != nil {
				panic(fmt.Sprintf("cluster: injected crash: %v", err))
			}
		}
		if ctx.Err() != nil {
			w.untrackLease(lease.LeaseID)
			return // shutdown mid-lease: the coordinator will steal it
		}
		w.pushResults(ctx, lease.LeaseID, results, tr)
	}
}

// pullLease requests one lease; ok is false when there is no work (or
// the RPC failed and should be retried after the poll interval).
func (w *Worker) pullLease(ctx context.Context) (leaseResponse, bool) {
	var lease leaseResponse
	if w.circuitState() != circuitClosed {
		return lease, false // outage: poll-wait until the circuit closes
	}
	if err := w.inj.Hit(ChaosSiteWorkerLease); err != nil {
		w.met.rpcRetries.Inc()
		return lease, false
	}
	code, err := w.post(ctx, "/cluster/v1/lease",
		leaseRequest{ID: w.cfg.ID, MaxPoints: w.cfg.MaxLeasePoints}, &lease)
	switch {
	case code == http.StatusNotFound:
		w.rpcOK()
		w.register(ctx) //nolint:errcheck // retried forever
		return lease, false
	case code == http.StatusNoContent || err != nil:
		if err != nil {
			w.met.rpcRetries.Inc()
			if code == 0 {
				w.rpcFailed()
			}
		} else {
			w.rpcOK()
		}
		return lease, false
	}
	w.rpcOK()
	return lease, len(lease.Units) > 0
}

// evaluate runs one unit through the shared evaluator for its
// (workload, options), verifying the unit's content address first. sp
// is the unit's worker-evaluate span; the simulation proper gets a
// child span so the stitched trace separates queueing/validation from
// compute.
func (w *Worker) evaluate(ctx context.Context, u workUnit, sp *span.Span) resultWire {
	res := resultWire{Key: u.Key}
	if err := validateUnit(u); err != nil {
		w.met.pointFailures.Inc()
		res.Error = err.Error()
		return res
	}
	eval, err := w.evaluator(u)
	if err != nil {
		w.met.pointFailures.Inc()
		res.Error = err.Error()
		return res
	}
	sim := sp.Child("simulate")
	p, err := eval.Evaluate(ctx, u.Config)
	sim.End()
	if err != nil {
		w.met.pointFailures.Inc()
		res.Error = err.Error()
		return res
	}
	b, err := sweep.MarshalPointJSON(p)
	if err != nil {
		w.met.pointFailures.Inc()
		res.Error = err.Error()
		return res
	}
	w.met.points.Inc()
	res.Point = b
	return res
}

// evaluator returns the cached evaluator for the unit's (workload,
// options), so the workload trace is generated once and replayed.
func (w *Worker) evaluator(u workUnit) (*sweep.Evaluator, error) {
	ob, err := json.Marshal(u.Options)
	if err != nil {
		return nil, err
	}
	key := u.Workload + "|" + string(ob)
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.evals[key]; ok {
		return e, nil
	}
	wl, err := spec.ByName(u.Workload)
	if err != nil {
		return nil, err
	}
	opt := u.Options.toOptions()
	opt.Metrics = w.cfg.Metrics
	opt.Events = w.cfg.Events
	opt.Chaos = w.cfg.Chaos
	e := sweep.NewEvaluator(wl, opt)
	w.evals[key] = e
	return e, nil
}

// pushResults posts a lease's results and the lease tracer's spans,
// retrying transient failures. If every attempt fails — or the circuit
// is already open — the push is buffered locally and flushed when the
// coordinator comes back (completion is idempotent, so a steal-and-rerun
// racing the flush still cannot double-deliver).
func (w *Worker) pushResults(ctx context.Context, leaseID string, results []resultWire, tr *span.Tracer) {
	req := completeRequest{
		ID: w.cfg.ID, LeaseID: leaseID, Results: results,
		Spans: tr.Snapshot(), EpochNS: tr.EpochWallNS(),
	}
	if w.circuitState() != circuitClosed {
		w.bufferPush(req)
		return
	}
	backoff := 50 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		err := w.inj.Hit(ChaosSiteWorkerComplete)
		if err == nil {
			var resp completeResponse
			if _, err = w.post(ctx, "/cluster/v1/complete", req, &resp); err == nil {
				w.rpcOK()
				w.untrackLease(leaseID)
				return
			}
		}
		w.met.rpcRetries.Inc()
		select {
		case <-ctx.Done():
			w.met.pushFailures.Inc()
			w.untrackLease(leaseID)
			return
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	// Out of retries: the coordinator is (most likely) down. Keep the
	// finished work instead of discarding it.
	w.bufferPush(req)
}

// post sends one JSON RPC and decodes the response into out (when
// non-nil and the answer is 200). It returns the status code; non-2xx
// answers become errors carrying the server's message.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode >= 300 {
		var e errorResponse
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return resp.StatusCode, fmt.Errorf("cluster: %s: %s", path, msg)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
