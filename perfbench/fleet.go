package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sweep"
)

// fleet-jobs: the daemon as deployed. Two closed-loop service.Clients
// submit a job, Wait for it, fetch its CSV, and repeat, against an
// in-process coordinator wired as cmd/antsimd wires it (cache directory,
// WAL data directory, cluster.NewDistributor) with two joined worker
// services behind loopback servers. The seed fixes the job mix: repeat
// sweep jobs that set-up already cached, cold quick sweep jobs on fresh
// seeds that ship shards to the workers, scenario jobs cycling through
// every preset, and a few synth jobs. The mix puts p50 inside the
// cache-hit band and p90 inside the cold band.
var fleetJobs = &workloadSpec{
	name:      "fleet-jobs",
	clients:   2,
	perSecond: 120,
	topUp:     24,
	layers:    fleetLayerNames,
	plan:      fleetPlan,
	open:      openFleet,
}

var fleetLayerNames = []string{
	"sweep.cache_get_us", "sweep.cache_hit_frac",
	"service.submit_ms", "service.notify_ms", "service.result_ms", "service.requests_per_job",
	"service.queue_wait_ms",
	"service.exec_ms.hit", "service.exec_ms.cold", "service.exec_ms.scenario", "service.exec_ms.synth",
	"cluster.shard_rtt_ms", "cluster.shards_per_job", "cluster.shipped_point_frac", "cluster.duplicate_point_frac",
}

// The job mix, as shares of the op list; scenario jobs take the rest.
const (
	hitShare   = 0.60
	coldShare  = 0.28
	synthShare = 0.02
)

// coldSweep is the table every cold job regenerates: one table keeps the
// cold band a band.
const coldSweep = "s1"

// repeatSweeps are cached by set-up and re-requested by the hit jobs.
var repeatSweeps = []string{"e1", "e5", "s1", "s2", "s3"}

// The scenario and synth job sizes.
const (
	scenarioD      = 8
	scenarioN      = 4
	scenarioTrials = 4
	synthTrials    = 4
)

// synthCandidate is a two-state machine scored by the synth jobs.
const synthCandidate = `{"states":[{"name":"s0","label":"up"},{"name":"s1","label":"right"}],"start":"s0","edges":[{"from":"s0","to":"s1","p":1},{"from":"s1","to":"s0","p":1}]}`

func fleetPlan(seed uint64, n int) []op {
	nHit := int(math.Round(hitShare * float64(n)))
	nCold := int(math.Round(coldShare * float64(n)))
	nSynth := max(1, int(math.Round(synthShare*float64(n))))
	presets := scenario.Names()
	repeat := repeatSeed(seed)
	offset := int(mix(seed, 0x4f4646) % uint64(len(presets)))
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		s := mix(seed, uint64(i))
		switch {
		case i < nHit:
			ops = append(ops, op{Kind: "hit", Seed: repeat, Arg: repeatSweeps[i%len(repeatSweeps)]})
		case i < nHit+nCold:
			ops = append(ops, op{Kind: "cold", Seed: s, Arg: coldSweep})
		case i < nHit+nCold+nSynth:
			ops = append(ops, op{Kind: "synth", Seed: s})
		default:
			j := i - nHit - nCold - nSynth
			ops = append(ops, op{Kind: "scenario", Seed: s, Arg: presets[(offset+j)%len(presets)]})
		}
	}
	shuffle(ops, mix(seed, 0x464c4545))
	return ops
}

// repeatSeed is the seed of the sweeps set-up caches for a run.
func repeatSeed(seed uint64) uint64 { return mix(seed, 0x52455045) }

func jobSpec(o op) service.JobSpec {
	switch o.Kind {
	case "hit", "cold":
		return service.JobSpec{Kind: service.KindSweep, Sweep: o.Arg, Quick: true, Seed: o.Seed}
	case "scenario":
		return service.JobSpec{Kind: service.KindScenario, Scenario: o.Arg, D: scenarioD, N: scenarioN, Trials: scenarioTrials, Seed: o.Seed}
	default:
		return service.JobSpec{Kind: service.KindSynth, SynthSpecs: []string{synthCandidate}, SynthDs: []int64{8}, Trials: synthTrials, Seed: o.Seed}
	}
}

type fleet struct {
	hook
	coord    *service.Service
	coordSrv *httptest.Server
	workers  []*service.Service
	srvs     []*httptest.Server
	client   *service.Client
	seed     uint64
	cacheDir string
	// tamper, when set, rewrites fetched sweep CSVs before the check (a
	// planted mismatch for the benchmark's own tests).
	tamper func([]byte) []byte

	mu      sync.Mutex
	shards  map[string]shardSubmit // worker job id -> submission
	shipped map[string]int         // sweep/seed/point -> times shipped
	stats0  service.Stats
}

type shardSubmit struct {
	start  time.Time
	points []string
}

func openFleet(ctx context.Context, dir string, seed uint64, traced bool) (workload, error) {
	w := &fleet{seed: seed, cacheDir: filepath.Join(dir, "coord-cache"), shards: map[string]shardSubmit{}, shipped: map[string]int{}}
	coord, err := service.New(service.Config{
		Workers:    2,
		QueueDepth: 64,
		CacheDir:   w.cacheDir,
		DataDir:    filepath.Join(dir, "coord-data"),
		// Membership outlives the run, so the benchmark needs no
		// heartbeat loop (cmd/antsimd's workers re-join every TTL/3).
		WorkerTTL: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	w.coord = coord
	coord.SetDistributor(cluster.NewDistributor(func() []string {
		ws := coord.ClusterWorkers()
		addrs := make([]string, len(ws))
		for i, x := range ws {
			addrs[i] = x.Addr
		}
		return addrs
	}, w.cacheDir, coord.Monitor()))
	w.coordSrv = httptest.NewServer(w.wrap(coord.Handler(), "coordinator", traced))
	w.client = service.NewClient(w.coordSrv.URL)
	for i := 0; i < 2; i++ {
		svc, err := service.New(service.Config{Workers: 2, CacheDir: filepath.Join(dir, fmt.Sprintf("worker%d-cache", i))})
		if err != nil {
			w.close()
			return nil, err
		}
		w.workers = append(w.workers, svc)
		srv := httptest.NewServer(w.wrap(svc.Handler(), "worker", traced))
		w.srvs = append(w.srvs, srv)
		if _, err := w.client.Join(ctx, srv.URL, fmt.Sprintf("worker-%d", i)); err != nil {
			w.close()
			return nil, fmt.Errorf("join worker %d: %w", i, err)
		}
	}
	if err := w.fill(ctx); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// fill runs the repeat sweeps once, so the coordinator's cache holds them.
func (w *fleet) fill(ctx context.Context) error {
	for _, s := range repeatSweeps {
		if _, err := w.run(ctx, op{Kind: "hit", Seed: repeatSeed(w.seed), Arg: s}, 0); err != nil {
			return fmt.Errorf("fill cache with %s: %w", s, err)
		}
	}
	return nil
}

func (w *fleet) close() error {
	var errs []error
	for _, srv := range append([]*httptest.Server{w.coordSrv}, w.srvs...) {
		if srv != nil {
			srv.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if w.coord != nil {
		errs = append(errs, w.coord.Close(ctx))
	}
	for _, svc := range w.workers {
		errs = append(errs, svc.Close(ctx))
	}
	return errors.Join(errs...)
}

func (w *fleet) trace(t *tracer) {
	if t != nil {
		w.stats0 = w.coord.Stats()
		w.mu.Lock()
		w.shards = map[string]shardSubmit{}
		w.shipped = map[string]int{}
		w.mu.Unlock()
	}
	w.hook.trace(t)
}

// run submits one job, waits for it and fetches its CSV.
func (w *fleet) run(ctx context.Context, o op, parent int) (string, error) {
	job, err := w.client.Submit(ctx, jobSpec(o))
	if err != nil {
		return "", err
	}
	done, err := w.client.Wait(ctx, job.ID)
	if jf := (*service.JobFailedError)(nil); errors.As(err, &jf) {
		// The job id depends on how the two clients interleave; the
		// message alone keeps the run digest a function of the seed.
		return "", fmt.Errorf("job failed: %s", jf.Message)
	}
	if err != nil {
		return "", err
	}
	waited := time.Now()
	if done.State != service.StateDone {
		return "", fmt.Errorf("job %s ended %s", job.ID, done.State)
	}
	csv, err := w.client.Result(ctx, job.ID, "csv")
	if err != nil {
		return "", err
	}
	if tr := w.tr(); tr != nil {
		tr.add("service.queue", o.Kind, parent, done.CreatedAt, done.StartedAt, 1)
		tr.add("service.exec", o.Kind, parent, done.StartedAt, done.FinishedAt, int64(done.Total))
		tr.add("service.notify", o.Kind, parent, done.FinishedAt, waited, 1)
	}
	return string(csv), nil
}

// check compares every repeat sweep's CSV and a seed-chosen sample of
// cold ones byte for byte with experiment.RunSweep's Summary().CSV() for
// the same sweep, seed and size.
func (w *fleet) check(_ context.Context, ops []op, outs []opOut) []string {
	var bad []string
	checked := map[string]bool{}
	cold := 0
	for i, o := range ops {
		if (o.Kind != "hit" && o.Kind != "cold") || outs[i].err != nil {
			continue
		}
		key := fmt.Sprintf("%s/%d", o.Arg, o.Seed)
		if checked[key] || (o.Kind == "cold" && (cold >= 4 || mix(o.Seed, 0x43484b)%3 != 0)) {
			continue
		}
		checked[key] = true
		if o.Kind == "cold" {
			cold++
		}
		got := []byte(outs[i].text)
		if w.tamper != nil {
			got = w.tamper(got)
		}
		if err := checkSweepCSV(o.Arg, o.Seed, got); err != nil {
			bad = append(bad, fmt.Sprintf("op %d (%s %s): %v", i, o.Kind, key, err))
		}
	}
	if len(checked) == 0 {
		bad = append(bad, "no sweep job output to check")
	}
	return bad
}

// checkSweepCSV recomputes a quick sweep locally, without cache or fleet,
// and compares CSV bytes.
func checkSweepCSV(name string, seed uint64, got []byte) error {
	sp, err := experiment.LookupSweep(name)
	if err != nil {
		return err
	}
	_, rep, err := experiment.RunSweep(sp, experiment.Config{Seed: seed, Quick: true}, nil)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if want := rep.Summary().CSV(); want != string(got) {
		return fmt.Errorf("CSV differs from experiment.RunSweep's (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

func (w *fleet) layers(ss *spanSet, m map[string]metric) error {
	ms := func(name string, tag ...string) (float64, error) {
		return perUnit(ss.named(name, tag...), name, time.Millisecond)
	}
	var err error
	set := func(metricName, unit string, v float64, e error) {
		if e != nil && err == nil {
			err = fmt.Errorf("%s: %w", metricName, e)
		}
		m[metricName] = metric{v, unit}
	}
	v, e := ms("http.coordinator", "submit")
	set("service.submit_ms", "ms", v, e)
	v, e = ms("http.coordinator", "result")
	set("service.result_ms", "ms", v, e)
	v, e = durPerSpan(ss.named("service.notify"), time.Millisecond)
	set("service.notify_ms", "ms", v, e)
	v, e = durPerSpan(ss.named("service.queue"), time.Millisecond)
	set("service.queue_wait_ms", "ms", v, e)
	for _, k := range []string{"hit", "cold", "scenario", "synth"} {
		v, e = durPerSpan(ss.named("service.exec", k), time.Millisecond)
		set("service.exec_ms."+k, "ms", v, e)
	}
	ops := float64(len(ss.named("op")))
	set("service.requests_per_job", "count", float64(len(ss.named("http.coordinator")))/ops, nil)
	v, e = durPerSpan(ss.named("cluster.shard"), time.Millisecond)
	set("cluster.shard_rtt_ms", "ms", v, e)
	v, e = perUnit(ss.named("sweep.Cache.Get"), "sweep.Cache.Get", time.Microsecond)
	set("sweep.cache_get_us", "us", v, e)

	var sweepPoints, cold float64
	for _, s := range ss.named("service.exec") {
		if s.Tag == "hit" || s.Tag == "cold" {
			sweepPoints += float64(s.N)
		}
		if s.Tag == "cold" {
			cold++
		}
	}
	shardSpans := ss.named("cluster.shard")
	_, shipped := sum(shardSpans)
	nShards := float64(len(shardSpans))
	set("cluster.shards_per_job", "count", nShards/math.Max(cold, 1), nil)
	set("cluster.shipped_point_frac", "ratio", float64(shipped)/math.Max(sweepPoints, 1), nil)
	w.mu.Lock()
	var total, dup int
	for _, c := range w.shipped {
		total += c
		dup += c - 1
	}
	w.mu.Unlock()
	set("cluster.duplicate_point_frac", "ratio", float64(dup)/math.Max(float64(total), 1), nil)

	st := w.coord.Stats()
	done := st.PointsDone - w.stats0.PointsDone
	hits := st.CacheHits - w.stats0.CacheHits
	set("sweep.cache_hit_frac", "ratio", float64(hits)/math.Max(float64(done), 1), nil)
	return err
}

// probe times the coordinator cache's read path on the cached repeat
// sweeps, from the benchmark's own sweep.Cache.Get calls.
func (w *fleet) probe(tr *tracer) {
	cache, err := sweep.NewCache(w.cacheDir)
	if err != nil {
		return
	}
	seed := repeatSeed(w.seed)
	for _, name := range repeatSweeps {
		sp, err := experiment.LookupSweep(name)
		if err != nil {
			continue
		}
		g := sp.Grid(experiment.Config{Seed: seed, Quick: true})
		pts := g.Points()
		id := tr.begin("sweep.Cache.Get", name, 0)
		hits := 0
		for rep := 0; rep < 10; rep++ {
			for _, p := range pts {
				if _, ok := cache.Get(sweep.KeyFor(g, p, seed)); ok {
					hits++
				}
			}
		}
		tr.end(id, int64(hits))
	}
}

// wrap puts a timing handler around a service's Handler when traced.
func (w *fleet) wrap(h http.Handler, role string, traced bool) http.Handler {
	if !traced {
		return h
	}
	return &timedHandler{next: h, fleet: w, role: role}
}

// timedHandler records one span per request. On workers it also pairs
// each shard job's submission with its result fetch: the shard's round
// trip, and the points it shipped.
type timedHandler struct {
	next  http.Handler
	fleet *fleet
	role  string
}

func (h *timedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := h.fleet.tr()
	if tr == nil {
		h.next.ServeHTTP(rw, r)
		return
	}
	route := routeOf(r)
	var spec service.JobSpec
	isShardSubmit := h.role == "worker" && route == "submit"
	if isShardSubmit {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(body))
		if err == nil {
			_ = json.Unmarshal(body, &spec) // a bad body is the service's to reject
		}
	}
	cw := &captureWriter{ResponseWriter: rw, capture: isShardSubmit}
	t0 := time.Now()
	h.next.ServeHTTP(cw, r)
	t1 := time.Now()
	tr.add("http."+h.role, route, 0, t0, t1, 1)
	if h.role != "worker" {
		return
	}
	f := h.fleet
	switch {
	case isShardSubmit && spec.Kind == service.KindShard:
		var job service.Job
		if json.Unmarshal(cw.body.Bytes(), &job) != nil || job.ID == "" {
			return
		}
		pts := make([]string, len(spec.Points))
		for i, p := range spec.Points {
			pts[i] = fmt.Sprintf("%s/%d/%d", spec.Sweep, spec.Seed, p)
		}
		f.mu.Lock()
		f.shards[r.Host+job.ID] = shardSubmit{start: t0, points: pts}
		f.mu.Unlock()
	case route == "result":
		key := r.Host + jobIDFromPath(r.URL.Path)
		f.mu.Lock()
		sub, ok := f.shards[key]
		if ok {
			delete(f.shards, key)
			for _, p := range sub.points {
				f.shipped[p]++
			}
		}
		f.mu.Unlock()
		if ok {
			tr.add("cluster.shard", r.Host, 0, sub.start, t1, int64(len(sub.points)))
		}
	}
}

// routeOf names the service route a request hits.
func routeOf(r *http.Request) string {
	p := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "job"
	default:
		return strings.TrimPrefix(p, "/v1/")
	}
}

func jobIDFromPath(p string) string {
	p = strings.TrimPrefix(p, "/v1/jobs/")
	id, _, _ := strings.Cut(p, "/")
	return id
}

// captureWriter keeps a copy of the response body when asked, and passes
// Flush through so event streams keep streaming.
type captureWriter struct {
	http.ResponseWriter
	capture bool
	body    bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.capture {
		c.body.Write(p)
	}
	return c.ResponseWriter.Write(p)
}

func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
