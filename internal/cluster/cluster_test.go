package cluster

// The cluster's robustness contract, proven deterministically:
//
//   - TestKillWorkerMidSweepByteIdentical is the acceptance test: three
//     workers, chaos kills one mid-sweep (unpushed results and all), and
//     the final envelope document is byte-identical to a single-node run
//     with zero lost and zero double-counted evaluations.
//   - TestZombieCompletionIsIdempotentNoOp drives the wire protocol by
//     hand: a worker goes silent, its lease is stolen and re-run
//     elsewhere, and then the zombie pushes its stale results — which
//     must land as duplicates, never a double delivery.
//   - TestChaosOnCoordinatorEndpoints proves workers ride out injected
//     coordinator-side failures on register and complete.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"twolevel/internal/chaos"
	"twolevel/internal/obs"
	"twolevel/internal/service"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// clusterOptions is a 9-point design space: enough work for three
// workers and a mid-sweep crash, cheap enough for CI.
func clusterOptions() sweep.Options {
	return sweep.Options{
		Refs:    20_000,
		L1Sizes: []int64{1 << 10, 2 << 10, 4 << 10},
		L2Sizes: []int64{0, 8 << 10, 16 << 10},
	}
}

// saveJobJSON renders a finished job's points as the canonical envelope
// document — the byte-identity yardstick.
func saveJobJSON(t *testing.T, j *service.Job) []byte {
	t.Helper()
	pts := j.Points()
	sweep.SortByArea(pts)
	var buf bytes.Buffer
	if err := sweep.SaveJSON(&buf, pts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitJob(t *testing.T, j *service.Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", j.ID(), err)
	}
}

// startWorker runs w in a goroutine and returns a channel that carries
// the recovered panic value (nil for a clean exit). The recover stands
// where a supervisor would: a crashed worker process dies, the test
// process must not.
func startWorker(ctx context.Context, w *Worker) <-chan any {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		w.Run(ctx) //nolint:errcheck // exercised via job completion
	}()
	return done
}

// TestKillWorkerMidSweepByteIdentical is the issue's acceptance test.
func TestKillWorkerMidSweepByteIdentical(t *testing.T) {
	req := service.JobRequest{Workloads: []string{"gcc1"}, Options: clusterOptions()}

	// Single-node reference: today's standalone manager.
	solo := service.New(service.Config{Workers: 2})
	jSolo, err := solo.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jSolo)
	want := saveJobJSON(t, jSolo)
	solo.Close()

	// Cluster under test: external-execution manager + coordinator with
	// an aggressive lease TTL so stealing happens in test time.
	reg := obs.NewRegistry()
	mgr := service.New(service.Config{ExternalExecution: true, Metrics: reg})
	defer mgr.Close()
	coord := NewCoordinator(CoordinatorConfig{
		Manager:        mgr,
		LeaseTTL:       250 * time.Millisecond,
		Heartbeat:      50 * time.Millisecond,
		MaxLeasePoints: 3,
		GrantWait:      100 * time.Millisecond,
		Metrics:        reg,
	})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	j, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker starts alone so it deterministically owns the
	// first lease; a chaos Panic rule kills it after its first
	// evaluation, with every result of the lease unpushed.
	crashInj := chaos.New(1)
	crashInj.Install(chaos.Rule{Site: ChaosSiteWorkerCrash, Times: 1, Panic: "kill -9"})
	doomed := NewWorker(WorkerConfig{
		Coordinator:  srv.URL,
		ID:           "w-doomed",
		Concurrency:  1,
		PollInterval: 20 * time.Millisecond,
		Chaos:        crashInj,
	})
	crashed := startWorker(ctx, doomed)
	select {
	case p := <-crashed:
		if p == nil {
			t.Fatal("doomed worker exited cleanly before the injected crash")
		}
	case <-time.After(time.Minute):
		t.Fatal("doomed worker never crashed")
	}
	if got := crashInj.Fired(ChaosSiteWorkerCrash); got != 1 {
		t.Fatalf("crash site fired %d times, want 1", got)
	}

	// Two survivors finish the sweep, re-running the stolen points.
	var survivors []<-chan any
	for _, id := range []string{"w-a", "w-b"} {
		w := NewWorker(WorkerConfig{
			Coordinator:  srv.URL,
			ID:           id,
			Concurrency:  1,
			PollInterval: 20 * time.Millisecond,
		})
		survivors = append(survivors, startWorker(ctx, w))
	}

	waitJob(t, j)
	st := j.Status()
	if st.State != service.StateDone {
		t.Fatalf("cluster job state = %s (errors: %v), want done", st.State, st.Errors)
	}

	// Byte identity against the single-node envelope.
	got := saveJobJSON(t, j)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster envelope differs from single-node envelope:\n--- cluster\n%s\n--- solo\n%s", got, want)
	}

	// Zero lost: every point completed. Zero double-counted: completions
	// equal the design-space size exactly, and nothing was delivered
	// twice (no duplicates were even pushed — the doomed worker died
	// before pushing).
	const points = 9
	if n := reg.Counter(MetricPointsCompleted).Value(); n != points {
		t.Fatalf("points completed = %d, want %d", n, points)
	}
	if n := reg.Counter(MetricPointsFailed).Value(); n != 0 {
		t.Fatalf("points failed = %d, want 0", n)
	}
	if n := mgr.Store().Len(); n != points {
		t.Fatalf("store holds %d points, want %d", n, points)
	}

	// The crash was observed as theft: at least one lease expired and
	// its points were stolen and re-leased.
	if n := reg.Counter(MetricLeasesExpired).Value(); n == 0 {
		t.Fatal("no lease expired despite the worker crash")
	}
	if n := reg.Counter(MetricPointsStolen).Value(); n == 0 {
		t.Fatal("no points were stolen despite the worker crash")
	}
	if n := reg.Counter(MetricWorkersDead).Value(); n != 1 {
		t.Fatalf("workers declared dead = %d, want 1", n)
	}

	// Survivors exit cleanly on cancel.
	cancel()
	for _, done := range survivors {
		select {
		case p := <-done:
			if p != nil {
				t.Fatalf("survivor panicked: %v", p)
			}
		case <-time.After(time.Minute):
			t.Fatal("survivor did not stop")
		}
	}
}

// postJSON drives one protocol RPC by hand.
func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestZombieCompletionIsIdempotentNoOp walks the full stolen-lease
// story at the wire level: lease to A, A goes silent, the lease expires
// and is re-leased to B, B completes, and then zombie A pushes the same
// results — which must count as duplicates and change nothing.
func TestZombieCompletionIsIdempotentNoOp(t *testing.T) {
	reg := obs.NewRegistry()
	mgr := service.New(service.Config{ExternalExecution: true, Metrics: reg})
	defer mgr.Close()
	coord := NewCoordinator(CoordinatorConfig{
		Manager:   mgr,
		LeaseTTL:  120 * time.Millisecond,
		Heartbeat: 30 * time.Millisecond,
		GrantWait: time.Second,
		Metrics:   reg,
	})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	opt := sweep.Options{Refs: 10_000, L1Sizes: []int64{1 << 10}, L2Sizes: []int64{8 << 10}}
	j, err := mgr.Submit(service.JobRequest{Workloads: []string{"gcc1"}, Options: opt})
	if err != nil {
		t.Fatal(err)
	}

	// A registers and takes the only point.
	if code := postJSON(t, srv.URL+"/cluster/v1/register", registerRequest{ID: "a"}, nil); code != http.StatusOK {
		t.Fatalf("register a: %d", code)
	}
	var leaseA leaseResponse
	if code := postJSON(t, srv.URL+"/cluster/v1/lease", leaseRequest{ID: "a", MaxPoints: 1}, &leaseA); code != http.StatusOK {
		t.Fatalf("lease a: %d", code)
	}
	if len(leaseA.Units) != 1 {
		t.Fatalf("lease a carries %d units, want 1", len(leaseA.Units))
	}
	u := leaseA.Units[0]

	// Evaluate the unit exactly as a worker would, once; by determinism
	// both A's and B's pushes are these same bytes.
	if err := validateUnit(u); err != nil {
		t.Fatal(err)
	}
	wl, err := spec.ByName(u.Workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sweep.NewEvaluator(wl, u.Options.toOptions()).Evaluate(context.Background(), u.Config)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := sweep.MarshalPointJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	result := resultWire{Key: u.Key, Point: pj}

	// A never heartbeats: the lease expires, the point is stolen, A is
	// declared dead.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := coord.Stats()
		if s.PointsReady == 1 && s.LeasesActive == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// B picks the stolen point up and completes it.
	if code := postJSON(t, srv.URL+"/cluster/v1/register", registerRequest{ID: "b"}, nil); code != http.StatusOK {
		t.Fatalf("register b: %d", code)
	}
	var leaseB leaseResponse
	if code := postJSON(t, srv.URL+"/cluster/v1/lease", leaseRequest{ID: "b", MaxPoints: 1}, &leaseB); code != http.StatusOK {
		t.Fatalf("lease b: %d", code)
	}
	if len(leaseB.Units) != 1 || leaseB.Units[0].Key != u.Key {
		t.Fatalf("lease b did not receive the stolen unit: %+v", leaseB)
	}
	var respB completeResponse
	if code := postJSON(t, srv.URL+"/cluster/v1/complete",
		completeRequest{ID: "b", LeaseID: leaseB.LeaseID, Results: []resultWire{result}}, &respB); code != http.StatusOK {
		t.Fatalf("complete b: %d", code)
	}
	if respB.Accepted != 1 || respB.Duplicates != 0 {
		t.Fatalf("complete b = %+v, want accepted 1", respB)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != service.StateDone || len(j.Points()) != 1 {
		t.Fatalf("job after B's completion: %+v", st)
	}

	// Zombie A rises and pushes the stale lease: an idempotent no-op.
	var respA completeResponse
	if code := postJSON(t, srv.URL+"/cluster/v1/complete",
		completeRequest{ID: "a", LeaseID: leaseA.LeaseID, Results: []resultWire{result}}, &respA); code != http.StatusOK {
		t.Fatalf("complete a: %d", code)
	}
	if respA.Accepted != 0 || respA.Duplicates != 1 {
		t.Fatalf("zombie completion = %+v, want 1 duplicate", respA)
	}
	if n := reg.Counter(MetricDuplicateResults).Value(); n != 1 {
		t.Fatalf("duplicate counter = %d, want 1", n)
	}
	if n := reg.Counter(MetricPointsCompleted).Value(); n != 1 {
		t.Fatalf("points completed = %d, want exactly 1", n)
	}
	if n := mgr.Store().Len(); n != 1 {
		t.Fatalf("store holds %d points, want 1", n)
	}

	// The whole episode cost one theft and one death, observably.
	if n := reg.Counter(MetricPointsStolen).Value(); n != 1 {
		t.Fatalf("points stolen = %d, want 1", n)
	}
	if n := reg.Counter(MetricWorkersDead).Value(); n != 1 {
		t.Fatalf("workers dead = %d, want 1", n)
	}
}

// TestChaosOnCoordinatorEndpoints: injected faults on the coordinator's
// register and complete handlers answer 503 and the worker's retry
// machinery rides them out — the job still completes exactly.
func TestChaosOnCoordinatorEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	inj := chaos.New(7)
	inj.Install(chaos.Rule{Site: ChaosSiteRegister, Times: 2})
	inj.Install(chaos.Rule{Site: ChaosSiteComplete, Times: 1})

	mgr := service.New(service.Config{ExternalExecution: true, Metrics: reg})
	defer mgr.Close()
	coord := NewCoordinator(CoordinatorConfig{
		Manager:   mgr,
		LeaseTTL:  2 * time.Second,
		GrantWait: 100 * time.Millisecond,
		Metrics:   reg,
		Chaos:     inj,
	})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerConfig{
		Coordinator:  srv.URL,
		ID:           "w-1",
		Concurrency:  2,
		PollInterval: 20 * time.Millisecond,
		Metrics:      reg,
	})
	done := startWorker(ctx, w)

	opt := sweep.Options{Refs: 10_000, L1Sizes: []int64{1 << 10, 2 << 10}, L2Sizes: []int64{0, 8 << 10}}
	j, err := mgr.Submit(service.JobRequest{Workloads: []string{"gcc1"}, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := j.Status(); st.State != service.StateDone || len(j.Points()) != 4 {
		t.Fatalf("job under endpoint chaos: %+v", st)
	}
	if n := inj.Fired(ChaosSiteRegister); n != 2 {
		t.Fatalf("register faults fired = %d, want 2", n)
	}
	if n := inj.Fired(ChaosSiteComplete); n != 1 {
		t.Fatalf("complete faults fired = %d, want 1", n)
	}
	if n := reg.Counter(MetricWorkerRPCRetries).Value(); n == 0 {
		t.Fatal("worker reported no RPC retries despite injected faults")
	}

	cancel()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("worker panicked: %v", p)
		}
	case <-time.After(time.Minute):
		t.Fatal("worker did not stop")
	}
}

// TestRegisterIsSingleFlight: after a coordinator restart the heartbeat
// loop and every lease loop re-register at once. Overlapping calls must
// share the register RPC in flight — the coordinator never sees two at
// a time — and all of them learn the assigned heartbeat interval.
func TestRegisterIsSingleFlight(t *testing.T) {
	var mu sync.Mutex
	inflight, maxInflight := 0, 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inflight++
		maxInflight = max(maxInflight, inflight)
		mu.Unlock()
		time.Sleep(20 * time.Millisecond) // widen the window for overlap
		mu.Lock()
		inflight--
		mu.Unlock()
		json.NewEncoder(w).Encode(registerResponse{HeartbeatMS: 70}) //nolint:errcheck // test server
	}))
	defer srv.Close()

	wk := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "w-single"})
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() { errs <- wk.register(context.Background()) }()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if maxInflight != 1 {
		t.Fatalf("coordinator saw %d concurrent register RPCs, want 1", maxInflight)
	}
	if got := wk.heartbeatInterval(); got != 70*time.Millisecond {
		t.Fatalf("heartbeat interval = %v, want 70ms", got)
	}
}
