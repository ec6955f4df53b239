package cluster

// Coordinator crash-tolerance, proven deterministically:
//
//   - TestKillCoordinatorMidSweepByteIdentical is the acceptance test:
//     two workers mid-sweep, the coordinator process is "kill -9"ed
//     (handler torn down, nothing closed cleanly), a new coordinator
//     boots from the same journal and store, holds /readyz at 503
//     "journal-replaying" until the workers reconcile their orphaned
//     leases, and finishes the sweep byte-identical to a single-node
//     run with zero lost and zero re-evaluated points.
//   - TestJournalTornTailRecovery tears the journal's final record
//     mid-write (chaos Short at the append site), and proves the reopen
//     truncates the tail and replays exactly the pre-tear state.
//   - TestJournalCorruptRecordSkipped flips a byte of one framed line
//     (silent media corruption) and proves the CRC catches it: the
//     record is dropped, replay continues.
//   - TestJournalCompactionRoundTrip proves checkpoint+truncate keeps
//     the live state and the job-id sequence floor.
//   - TestBackoffScheduleDeterminism pins the reconnect backoff: seeded
//     schedules are reproducible, growth and bounds hold, Reset
//     restarts the progression.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"twolevel/internal/chaos"
	"twolevel/internal/obs"
	"twolevel/internal/service"
)

// completionGate wraps a coordinator's handler so a test can stop
// completion pushes at a moment of its choosing: while refusing, a push
// is answered 503 before the coordinator sees it, and refuse returns
// only once the pushes already inside the handler have finished.
type completionGate struct {
	next     http.Handler
	mu       sync.Mutex
	refusing bool
	inflight sync.WaitGroup
}

func (g *completionGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/cluster/v1/complete" {
		g.next.ServeHTTP(w, r)
		return
	}
	g.mu.Lock()
	if g.refusing {
		g.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("completions refused"))
		return
	}
	g.inflight.Add(1)
	g.mu.Unlock()
	defer g.inflight.Done()
	g.next.ServeHTTP(w, r)
}

// refuse turns completion pushes away and waits out those in flight.
func (g *completionGate) refuse() {
	g.mu.Lock()
	g.refusing = true
	g.mu.Unlock()
	g.inflight.Wait()
}

// accept lets completion pushes through again.
func (g *completionGate) accept() {
	g.mu.Lock()
	g.refusing = false
	g.mu.Unlock()
}

func testJobRequest() service.JobRequest {
	return service.JobRequest{Workloads: []string{"gcc1"}, Options: clusterOptions()}
}

// TestKillCoordinatorMidSweepByteIdentical is the issue's acceptance
// test: the coordinator — not a worker — dies mid-sweep and restarts
// from its journal.
func TestKillCoordinatorMidSweepByteIdentical(t *testing.T) {
	req := testJobRequest()

	// Single-node reference: today's standalone manager.
	solo := service.New(service.Config{Workers: 2})
	jSolo, err := solo.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jSolo)
	want := saveJobJSON(t, jSolo)
	solo.Close()

	storeDir := t.TempDir()
	journalDir := t.TempDir()

	// --- coordinator process #1: journaled manager + coordinator ------
	reg1 := obs.NewRegistry()
	journal1, err := OpenJournal(journalDir, JournalOptions{Metrics: reg1})
	if err != nil {
		t.Fatal(err)
	}
	disk1, err := service.OpenDiskStore(storeDir, service.DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// mgr1, journal1, and disk1 are deliberately never closed: closing
	// them would journal clean-shutdown records and fsync farewells that
	// a kill -9 never writes. They leak until the test process exits,
	// exactly like the OS reclaiming a dead process's descriptors.
	mgr1 := service.New(service.Config{
		ExternalExecution: true, Metrics: reg1, Store: disk1,
		OnJobAdmitted: func(id string, r service.JobRequest) { journal1.RecordAdmission(id, r) },
		OnJobTerminal: func(id string, s service.State) { journal1.RecordJobEnd(id, string(s)) },
	})
	coord1 := NewCoordinator(CoordinatorConfig{
		Manager:        mgr1,
		LeaseTTL:       500 * time.Millisecond,
		Heartbeat:      50 * time.Millisecond,
		MaxLeasePoints: 2,
		GrantWait:      50 * time.Millisecond,
		Metrics:        reg1,
		Journal:        journal1,
	})
	// A real listener (not httptest) so the restarted coordinator can
	// re-bind the same address the workers keep probing.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	gate := &completionGate{next: coord1.Handler()}
	hs1 := &http.Server{Handler: gate}
	go hs1.Serve(ln1) //nolint:errcheck // torn down by the kill below

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	j1, err := mgr1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	jobID := j1.ID()

	// Two workers with fast seeded reconnect backoff; a pure-delay chaos
	// rule on every completion push holds leases in flight long enough
	// for the kill to land mid-push.
	regW := obs.NewRegistry()
	for i, id := range []string{"w-a", "w-b"} {
		injW := chaos.New(int64(i + 1))
		injW.Install(chaos.Rule{Site: ChaosSiteWorkerComplete, Delay: 400 * time.Millisecond})
		w := NewWorker(WorkerConfig{
			Coordinator:    "http://" + addr,
			ID:             id,
			Concurrency:    1,
			MaxLeasePoints: 2,
			PollInterval:   20 * time.Millisecond,
			Backoff:        Backoff{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond, Seed: int64(i + 1)},
			Metrics:        regW,
			Chaos:          injW,
		})
		startWorker(ctx, w)
	}

	// Kill once the sweep is genuinely mid-flight: at least one point
	// durably stored AND at least one lease still out. The condition is
	// sampled with completion pushes refused and none in flight, so no
	// push can close the last lease between the sample and the kill; a
	// refused push is retried, like one that hit the dead coordinator.
	midFlight := func() bool {
		return reg1.Counter(MetricPointsCompleted).Value() >= 1 && coord1.Stats().LeasesActive >= 1
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reached mid-flight state: %+v", coord1.Stats())
		}
		if midFlight() {
			gate.refuse()
			if midFlight() {
				break
			}
			gate.accept()
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The "kill": stop the reaper, then tear down the HTTP surface.
	// Shutdown (not Close) lets in-flight handlers finish their journal
	// appends — the moral equivalent of the kill landing between
	// requests — so the old process writes nothing after the new one
	// opens the journal.
	coord1.Close()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := hs1.Shutdown(shutCtx); err != nil {
		hs1.Close()
	}
	shutCancel()

	// --- coordinator process #2: same journal, same store -------------
	reg2 := obs.NewRegistry()
	journal2, err := OpenJournal(journalDir, JournalOptions{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	rep := journal2.Replayed()
	if len(rep.Jobs) != 1 || len(rep.Leases) == 0 {
		t.Fatalf("journal replayed %d jobs, %d leases; want 1 job and in-flight leases", len(rep.Jobs), len(rep.Leases))
	}
	disk2, err := service.OpenDiskStore(storeDir, service.DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	mgr2 := service.New(service.Config{
		ExternalExecution: true, Metrics: reg2, Store: disk2,
		OnJobAdmitted: func(id string, r service.JobRequest) { journal2.RecordAdmission(id, r) },
		OnJobTerminal: func(id string, s service.State) { journal2.RecordJobEnd(id, string(s)) },
	})
	defer mgr2.Close()
	coord2 := NewCoordinator(CoordinatorConfig{
		Manager:        mgr2,
		LeaseTTL:       500 * time.Millisecond,
		Heartbeat:      50 * time.Millisecond,
		MaxLeasePoints: 2,
		GrantWait:      50 * time.Millisecond,
		OrphanGrace:    30 * time.Second, // reconciliation must come from the workers, not the reaper
		Metrics:        reg2,
		Journal:        journal2,
	})
	defer coord2.Close()

	if err := coord2.RecoveryErr(); err == nil {
		t.Fatal("restarted coordinator reports ready before orphan reconciliation")
	}
	if got := coord2.Stats().PointsOrphaned; got == 0 {
		t.Fatal("restart orphaned no units despite in-flight journaled leases")
	}

	// Satellite: the job API answers 503 "journal-replaying" until the
	// grace reconciliation completes.
	mgr2.AddReadyCheck("journal-replaying", coord2.RecoveryErr)
	mgr2.AddReadyCheck("journal-poisoned", journal2.Err)
	api := httptest.NewServer(service.NewHandler(mgr2))
	defer api.Close()
	if code, body := getBody(t, api.URL+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "journal-replaying") {
		t.Fatalf("/readyz during replay = %d %q, want 503 journal-replaying", code, body)
	}

	// Re-bind the dead coordinator's address and serve the new one; the
	// workers' reconnect loops find it, re-register with their in-flight
	// keys, and flush their buffered pushes.
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 250 {
			t.Fatalf("re-listen on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	hs2 := &http.Server{Handler: coord2.Handler()}
	go hs2.Serve(ln2) //nolint:errcheck // closed by defer
	defer hs2.Close()

	j2, ok := mgr2.Job(jobID)
	if !ok {
		t.Fatalf("job %s was not rehydrated from the journal", jobID)
	}
	waitJob(t, j2)
	if st := j2.Status(); st.State != service.StateDone {
		t.Fatalf("rehydrated job state = %s (errors: %v), want done", st.State, st.Errors)
	}

	// Byte identity against the single-node envelope.
	if got := saveJobJSON(t, j2); !bytes.Equal(got, want) {
		t.Fatalf("post-failover envelope differs from single-node envelope:\n--- failover\n%s\n--- solo\n%s", got, want)
	}

	const points = 9
	// Zero re-evaluation: across the entire kill-and-restart, the fleet
	// evaluated each of the 9 points exactly once.
	if n := regW.Counter(MetricWorkerPoints).Value(); n != points {
		t.Errorf("fleet evaluated %d points, want exactly %d (zero re-evaluation)", n, points)
	}
	// Zero loss: what the first process stored came back as store hits
	// on rehydration; the remainder arrived as post-restart completions.
	hits := reg2.Counter(service.MetricStoreHits).Value()
	completed := reg2.Counter(MetricPointsCompleted).Value()
	if hits == 0 {
		t.Error("rehydration produced no store hits: pre-kill work was lost or re-run")
	}
	if hits+completed != points {
		t.Errorf("store hits (%d) + completions (%d) = %d, want %d exactly", hits, completed, hits+completed, points)
	}
	if n := reg2.Counter(MetricCoordinatorRestarts).Value(); n != 1 {
		t.Errorf("cluster_coordinator_restarts_total = %d, want 1", n)
	}
	if n := reg2.Counter(MetricOrphanLeasesReconciled).Value(); n < 1 {
		t.Errorf("cluster_orphan_leases_reconciled_total = %d, want >= 1", n)
	}
	if err := coord2.RecoveryErr(); err != nil {
		t.Errorf("RecoveryErr after completion: %v", err)
	}
	if code, body := getBody(t, api.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after reconciliation = %d %q, want 200", code, body)
	}
	if fo := coord2.Status().Failover; fo == nil {
		t.Error("status document lacks the failover section despite a journal")
	} else if fo.Recovering || fo.OrphanUnits != 0 {
		t.Errorf("failover status still recovering after completion: %+v", fo)
	}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestJournalTornTailRecovery cuts an append off mid-write and proves
// reopening truncates the torn tail and replays the pre-tear state
// exactly.
func TestJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(1)
	// The first three appends land clean; the fourth is torn (half the
	// line persists, then the write fails).
	inj.Install(chaos.Rule{Site: ChaosSiteJournalAppend, After: 3, Times: 1, Short: true})
	j, err := OpenJournal(dir, JournalOptions{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	j.RecordAdmission("j1", testJobRequest())
	j.RecordGrant("l1", "w-a", []string{"k1", "k2"})
	j.RecordComplete("k1", true)
	j.RecordGrant("l2", "w-b", []string{"k3"}) // torn mid-write
	if err := j.Err(); err == nil {
		t.Fatal("torn append did not poison the journal")
	}
	// A poisoned journal refuses further appends rather than framing on
	// top of the partial line.
	j.RecordComplete("k2", true)
	j.Close()

	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep := j2.Replayed()
	if rep.TornRepaired != 1 {
		t.Fatalf("TornRepaired = %d, want 1", rep.TornRepaired)
	}
	if rep.Records != 3 {
		t.Fatalf("replayed %d records, want the 3 pre-tear ones", rep.Records)
	}
	if len(rep.Jobs) != 1 || rep.Jobs[0].ID != "j1" {
		t.Fatalf("replayed jobs = %+v, want [j1]", rep.Jobs)
	}
	if len(rep.Leases) != 1 || rep.Leases[0].ID != "l1" ||
		!reflect.DeepEqual(rep.Leases[0].Keys, []string{"k2"}) {
		t.Fatalf("replayed leases = %+v, want [l1 holding k2]", rep.Leases)
	}
	// The rehydratable request round-trips (fingerprint-identical).
	if got := rep.Jobs[0].Req; !reflect.DeepEqual(got, testJobRequest()) {
		t.Fatalf("replayed request = %+v, want %+v", got, testJobRequest())
	}
}

// TestJournalCorruptRecordSkipped flips one byte of a framed line and
// proves the CRC catches it: the record drops, replay continues.
func TestJournalCorruptRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(7)
	inj.Install(chaos.Rule{Site: ChaosSiteJournalAppend, After: 1, Times: 1, Corrupt: true})
	j, err := OpenJournal(dir, JournalOptions{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	j.RecordAdmission("j1", testJobRequest())
	j.RecordGrant("l1", "w-a", []string{"k1"}) // silently corrupted
	j.RecordComplete("k9", true)               // lands clean after it
	if err := j.Err(); err != nil {
		t.Fatalf("silent corruption must not poison the journal, got: %v", err)
	}
	j.Close()

	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep := j2.Replayed()
	if rep.CorruptDropped != 1 {
		t.Fatalf("CorruptDropped = %d, want 1", rep.CorruptDropped)
	}
	if rep.Records != 2 {
		t.Fatalf("replayed %d records, want 2 (the clean ones)", rep.Records)
	}
	if len(rep.Jobs) != 1 || len(rep.Leases) != 0 {
		t.Fatalf("replayed jobs=%d leases=%d, want the job alone (the corrupt grant is gone)",
			len(rep.Jobs), len(rep.Leases))
	}
}

// TestJournalCompactionRoundTrip proves checkpoint+truncate preserves
// the live state (and only it) plus the job-id sequence floor.
func TestJournalCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.RecordAdmission("j1", testJobRequest())
	j.RecordAdmission("j2", testJobRequest())
	j.RecordGrant("l1", "w-a", []string{"k1", "k2"})
	j.RecordRenew("l1")
	j.RecordRenew("l1")
	j.RecordComplete("k1", true)
	j.RecordJobEnd("j2", "done")
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	if st.Records != 2 {
		t.Fatalf("post-compaction records = %d, want 2 (job j1 + lease l1)", st.Records)
	}
	if st.LastCompactAgo < 0 {
		t.Fatal("LastCompactAgo still reports never-compacted")
	}
	// Appends keep working on the compacted file.
	j.RecordGrant("l2", "w-b", []string{"k3"})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep := j2.Replayed()
	if rep.Seq != 2 {
		t.Fatalf("sequence floor = %d, want 2 (j2's admission survives compaction in the header)", rep.Seq)
	}
	if len(rep.Jobs) != 1 || rep.Jobs[0].ID != "j1" {
		t.Fatalf("replayed jobs = %+v, want [j1]", rep.Jobs)
	}
	if len(rep.Leases) != 2 {
		t.Fatalf("replayed %d leases, want 2 (compacted l1 + appended l2)", len(rep.Leases))
	}
	if rep.Leases[0].ID != "l1" || !reflect.DeepEqual(rep.Leases[0].Keys, []string{"k2"}) {
		t.Fatalf("lease l1 = %+v, want keys [k2]", rep.Leases[0])
	}
	if rep.Leases[1].ID != "l2" || !reflect.DeepEqual(rep.Leases[1].Keys, []string{"k3"}) {
		t.Fatalf("lease l2 = %+v, want keys [k3]", rep.Leases[1])
	}
}

// TestBackoffScheduleDeterminism pins the reconnect schedule: seeded
// reproducibility, exponential growth, cap, jitter bounds, Reset.
func TestBackoffScheduleDeterminism(t *testing.T) {
	const n = 12
	draw := func(b Backoff) []time.Duration {
		s := NewBackoffSchedule(b)
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = s.Next()
		}
		return out
	}

	t.Run("same seed, same schedule", func(t *testing.T) {
		b := Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: 0.5, Seed: 42}
		if a, c := draw(b), draw(b); !reflect.DeepEqual(a, c) {
			t.Fatalf("two schedules from seed 42 diverged:\n%v\n%v", a, c)
		}
	})

	t.Run("different seeds differ", func(t *testing.T) {
		a := draw(Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: 0.5, Seed: 1})
		c := draw(Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: 0.5, Seed: 2})
		if reflect.DeepEqual(a, c) {
			t.Fatal("seeds 1 and 2 produced identical jitter")
		}
	})

	t.Run("bare exponential without jitter", func(t *testing.T) {
		got := draw(Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 1})
		want := []time.Duration{10, 20, 40, 80, 80, 80, 80, 80, 80, 80, 80, 80}
		for i := range want {
			want[i] *= time.Millisecond
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("growth = %v, want %v", got, want)
		}
	})

	t.Run("jitter bounds", func(t *testing.T) {
		b := Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: 0.5, Seed: 7}
		seq := draw(b)
		for i, d := range seq {
			if d > b.Max {
				t.Fatalf("delay %d = %v exceeds cap %v", i, d, b.Max)
			}
			if d < b.Base/2 {
				t.Fatalf("delay %d = %v below jitter floor %v", i, d, b.Base/2)
			}
		}
	})

	t.Run("reset restarts the progression", func(t *testing.T) {
		s := NewBackoffSchedule(Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 1})
		s.Next()
		s.Next()
		s.Reset()
		if got := s.Next(); got != 10*time.Millisecond {
			t.Fatalf("post-Reset delay = %v, want the base again", got)
		}
	})
}
