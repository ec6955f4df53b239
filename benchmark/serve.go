package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"twolevel/internal/loadgen"
	"twolevel/internal/obs"
	"twolevel/internal/obs/span"
	"twolevel/internal/service"
	"twolevel/internal/spec"
	"twolevel/internal/sweep"
)

// serve-mix parameters. serve-mix is the open-loop traffic the layer
// probe drives through the in-process service for the service, store,
// HTTP and SSE metrics.
const (
	// serveRPS is the open-loop arrival rate. At the 1:4:4 mix it sends
	// about 4.4 cold jobs a second; a cold job (two configurations) takes
	// about 11ms, so under 5% of requests overlap one. Hot and envelope
	// p90 then fall among requests that ran alone: at a 10% overlap they
	// would straddle the two populations and swing from run to run.
	serveRPS = 40
	// serveSeconds is how long the traffic runs.
	serveSeconds = 8
	// serveWorkload is the workload every job and envelope query names.
	serveWorkload = "gcc1"
	// serveRefs is the trace length of the hot job and the base length
	// of cold jobs.
	serveRefs = 20_000
	// historyJobs × 315 points (7 workloads × 45 configurations) of
	// earlier work pre-seed the durable store, so replay and envelope
	// queries see a store of some size rather than a handful of points.
	historyJobs = 4
	historyRefs = 2_000
	// hotCacheSize is the hot LRU tier's capacity in points.
	hotCacheSize = 4096
)

// serveMix weights the request classes. The fast class is left out:
// the analytical tier may be deleted, and the probe measures the model
// layer directly.
var serveMix = map[string]int{loadgen.ClassCold: 1, loadgen.ClassHot: 4, loadgen.ClassEnvelope: 4}

// jobParams are the simulation inputs of one job request.
type jobParams struct {
	refs       uint64
	l1KB, l2KB []int64
}

// hotJob is the one job every hot request repeats; its points are in
// the store before the timed phase starts.
var hotJob = jobParams{refs: serveRefs, l1KB: []int64{1, 2, 4}, l2KB: []int64{0, 16}}

// coldJob gives the index-th cold request of a run new simulation
// inputs: a trace length no other request of the run uses (so neither
// a point-level nor a stats-level memo can answer it), varied by seed.
func coldJob(seed int64, index int) jobParams {
	jitter := uint64(seed&7) ^ uint64(index*5)&7
	return jobParams{refs: serveRefs + 8*uint64(index+1) + jitter, l1KB: []int64{2}, l2KB: []int64{0, 16}}
}

func (p jobParams) body() string {
	l1, _ := json.Marshal(p.l1KB) // an []int64 always marshals
	l2, _ := json.Marshal(p.l2KB)
	return fmt.Sprintf(`{"workloads":[%q],"options":{"refs":%d,"l1_kb":%s,"l2_kb":%s}}`, serveWorkload, p.refs, l1, l2)
}

// options mirrors how the service reads the body: every other field
// takes the sweep defaults.
func (p jobParams) options() sweep.Options {
	opt := sweep.Options{Refs: p.refs}
	for _, kb := range p.l1KB {
		opt.L1Sizes = append(opt.L1Sizes, kb<<10)
	}
	for _, kb := range p.l2KB {
		opt.L2Sizes = append(opt.L2Sizes, kb<<10)
	}
	return opt
}

// server is one in-process service instance over a durable store,
// wired as cmd/served wires it with -store-dir, -hot-cache and one
// worker.
type server struct {
	disk *service.DiskStore
	mgr  *service.Manager
	http *http.Server
	url  string
	reg  *obs.Registry
	done chan error
}

func startServer(storeDir string, tr *span.Tracer, client *http.Client) (*server, error) {
	reg := obs.NewRegistry()
	obs.EnableRuntimeMetrics(reg)
	disk, err := service.OpenDiskStore(storeDir, service.DiskStoreOptions{})
	if err != nil {
		return nil, err
	}
	mgr := service.New(service.Config{Workers: 1, Store: service.NewHotStore(disk, hotCacheSize, reg), Metrics: reg, Trace: tr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		disk.Close()
		return nil, err
	}
	s := &server{disk: disk, mgr: mgr, reg: reg, done: make(chan error, 1),
		http: &http.Server{Handler: obs.InstrumentHTTP(reg, service.NewHandler(mgr))},
		url:  "http://" + ln.Addr().String()}
	go func() { s.done <- s.http.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("service not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains HTTP and the manager and closes the store, waiting for
// the serving goroutine to exit.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.http.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	merr := s.mgr.Shutdown(ctx)
	return errors.Join(herr, merr, s.disk.Close())
}

// seedStore writes the store serve-mix starts from: historyJobs jobs of
// earlier work plus the hot job, submitted through the HTTP handler
// exactly as a client would. It syncs once at the end, not per point:
// this is preparation, not the measured write path.
func seedStore(dir string) error {
	disk, err := service.OpenDiskStore(dir, service.DiskStoreOptions{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	mgr := service.New(service.Config{Workers: 1, Store: disk})
	ctx := context.Background()
	var jobs []*service.Job
	for k := 0; k < historyJobs; k++ {
		j, err := mgr.Submit(service.JobRequest{Workloads: spec.Names(), Options: sweep.Options{Refs: historyRefs + uint64(k)}})
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	rec := httptest.NewRecorder()
	service.NewHandler(mgr).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(hotJob.body())))
	var st struct{ ID string }
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		return fmt.Errorf("seeding the hot job: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	hj, ok := mgr.Job(st.ID)
	if !ok {
		return fmt.Errorf("seeding the hot job: job %s not found", st.ID)
	}
	for _, j := range append(jobs, hj) {
		if err := j.Wait(ctx); err != nil {
			return err
		}
		if s := j.Status(); s.State != service.StateDone {
			return fmt.Errorf("seeding job %s ended %s", s.ID, s.State)
		}
	}
	if err := mgr.Shutdown(ctx); err != nil {
		return err
	}
	return disk.Close()
}

// reqResult is one request's outcome.
type reqResult struct {
	class    string
	job      jobParams
	lagMS    float64 // how late the send ran against the schedule
	latMS    float64 // from the due instant to the terminal answer
	submitMS float64 // POST to 202
	sseMS    float64 // stream open to first frame
	jobID    string
	err      error
}

// serveRun drives serve-mix for serveSeconds against a service set up
// over a pre-seeded store, checks every job's points, and returns the
// service and loadgen metrics. Requests are spans under parent, and the
// service's job spans go to tr.
func serveRun(seed int64, dir string, tr *span.Tracer, parent *span.Span) (childOut, error) {
	out := childOut{Values: map[string]float64{}}
	storeDir := filepath.Join(dir, "store")
	if err := seedStore(storeDir); err != nil {
		return out, fmt.Errorf("seeding store: %w", err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}}
	defer client.CloseIdleConnections()
	srv, err := startServer(storeDir, tr, client)
	if err != nil {
		return out, err
	}
	plan, err := loadgen.Plan(loadgen.Config{BaseURL: srv.url, RPS: serveRPS, Duration: serveSeconds * time.Second, Seed: seed, Mix: serveMix})
	if err != nil {
		return out, errors.Join(err, srv.stop())
	}
	results := make([]reqResult, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i, rq := range plan {
		due := start.Add(rq.At)
		time.Sleep(time.Until(due))
		results[i].lagMS = ms(time.Since(due))
		wg.Add(1)
		go func(r *reqResult, rq loadgen.Request, due time.Time) {
			defer wg.Done()
			sp := parent.Child("request", span.Attr{Key: "class", Value: rq.Class})
			doRequest(client, srv.url, seed, rq, due, r)
			sp.End()
		}(&results[i], rq, due)
	}
	wg.Wait()

	checkServe(client, srv, results, &out)
	hits := float64(srv.reg.Counter(service.MetricHotHits).Value())
	misses := float64(srv.reg.Counter(service.MetricHotMisses).Value())
	if err := srv.stop(); err != nil {
		return out, err
	}
	out.Values["service.hot_hit_share"] = hits / max(hits+misses, 1)
	lat := map[string][]float64{}
	var lags, submits, sses []float64
	for _, r := range results {
		lags = append(lags, r.lagMS)
		if r.err != nil {
			continue
		}
		lat[r.class] = append(lat[r.class], r.latMS)
		if r.class != loadgen.ClassEnvelope {
			submits = append(submits, r.submitMS)
			sses = append(sses, r.sseMS)
		}
	}
	for _, class := range []string{loadgen.ClassCold, loadgen.ClassHot, loadgen.ClassEnvelope} {
		for _, q := range []float64{0.5, 0.9} {
			out.Values[fmt.Sprintf("service.%s_ms.p%.0f", class, q*100)] = quantile(lat[class], q)
		}
	}
	out.Values["service.submit_ms"] = median(submits)
	out.Values["service.sse_snapshot_ms"] = median(sses)
	out.Values["loadgen.lag_ms.p99"] = quantile(lags, 0.99)
	out.Values["loadgen.lag_ms.max"] = quantile(lags, 1)
	return out, nil
}

// doRequest sends one planned request and follows a job to its terminal
// state over SSE, as loadgen does.
func doRequest(client *http.Client, base string, seed int64, rq loadgen.Request, due time.Time, r *reqResult) {
	r.class = rq.Class
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if rq.Class == loadgen.ClassEnvelope {
		r.err = getEnvelope(ctx, client, base)
		r.latMS = ms(time.Since(due))
		return
	}
	r.job = hotJob
	if rq.Class == loadgen.ClassCold {
		r.job = coldJob(seed, rq.Index)
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", strings.NewReader(r.job.body()))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	var st struct{ ID string }
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || derr != nil || st.ID == "" {
		r.err = fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, derr)
		return
	}
	r.submitMS = ms(time.Since(t0))
	r.jobID = st.ID
	r.err = followJob(ctx, client, base, st.ID, r)
	r.latMS = ms(time.Since(due))
}

// followJob reads the job's SSE stream to the terminal state event.
func followJob(ctx context.Context, client *http.Client, base, id string, r *reqResult) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var event string
	var data []byte
	first := true
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && event != "":
			if first {
				r.sseMS = ms(time.Since(t0))
				first = false
			}
			if event == "state" {
				var st struct{ State string }
				if err := json.Unmarshal(data, &st); err != nil {
					return err
				}
				if st.State != string(service.StateDone) {
					return fmt.Errorf("job %s ended %s", id, st.State)
				}
				return nil
			}
			event, data = "", data[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: stream ended without a terminal state", id)
}

// getEnvelope asks the area-budget question over the store and requires
// a feasible answer.
func getEnvelope(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/envelope?area=1e9&workload="+serveWorkload, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var env struct {
		Feasible bool `json:"feasible"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != http.StatusOK || derr != nil || !env.Feasible {
		return fmt.Errorf("envelope: HTTP %d feasible=%t (%v)", resp.StatusCode, env.Feasible, derr)
	}
	return nil
}

// checkServe counts every request and requires each finished job's
// points to be byte-identical to a standalone evaluation of the same
// inputs. Hot jobs repeat one request, so their documents must also be
// byte-identical to each other.
func checkServe(client *http.Client, srv *server, results []reqResult, out *childOut) {
	ctx := context.Background()
	var hotDoc []byte
	for i := range results {
		r := &results[i]
		out.Attempted++
		if r.err == nil && r.jobID != "" {
			r.err = checkJob(ctx, client, srv.url, r, &hotDoc)
		}
		if r.err != nil {
			out.Failed++
			if len(out.Problems) < 10 {
				out.Problems = append(out.Problems, fmt.Sprintf("%s request: %v", r.class, r.err))
			}
		}
	}
	if err := srv.mgr.StoreErr(); err != nil {
		out.Failed++
		out.Problems = append(out.Problems, fmt.Sprintf("store: %v", err))
	}
}

func checkJob(ctx context.Context, client *http.Client, base string, r *reqResult, hotDoc *[]byte) error {
	resp, err := client.Get(base + "/v1/jobs/" + r.jobID + "/result")
	if err != nil {
		return err
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: HTTP %d (%v)", resp.StatusCode, err)
	}
	if r.class == loadgen.ClassHot && *hotDoc != nil {
		if !bytes.Equal(doc, *hotDoc) {
			return fmt.Errorf("hot job %s: result differs from the first hot job's", r.jobID)
		}
		return nil
	}
	pts, err := sweep.LoadJSON(bytes.NewReader(doc))
	if err != nil {
		return err
	}
	opt := r.job.options()
	cfgs := sweep.Configs(opt)
	if len(pts) != len(cfgs) {
		return fmt.Errorf("job %s: %d points, want %d", r.jobID, len(pts), len(cfgs))
	}
	w, err := spec.ByName(serveWorkload)
	if err != nil {
		return err
	}
	want := map[string]sweep.Point{}
	for _, cfg := range cfgs {
		want[sweep.Label(cfg)] = sweep.Evaluate(w, cfg, opt)
	}
	for _, p := range pts {
		if err := samePoint(p, want[p.Label]); err != nil {
			return fmt.Errorf("job %s %s: %w", r.jobID, p.Label, err)
		}
	}
	if r.class == loadgen.ClassHot {
		*hotDoc = doc
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
