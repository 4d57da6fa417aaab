package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Sentinel errors of the service API. The HTTP layer maps them to status
// codes (see writeError in http.go).
var (
	// ErrNotFound: no job with that id.
	ErrNotFound = errors.New("service: no such job")
	// ErrNotDone: the job has no result artifacts (yet or ever).
	ErrNotDone = errors.New("service: job has no result (not done)")
	// ErrTerminal: the job already reached a terminal state.
	ErrTerminal = errors.New("service: job already terminal")
	// ErrQueueFull: the submission queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed: the service is draining or closed and accepts no new jobs.
	ErrClosed = errors.New("service: shutting down")
	// ErrBadFormat: the requested artifact format is not "json" or "csv".
	ErrBadFormat = errors.New(`service: artifact format must be "json" or "csv"`)
	// ErrInvalidSpec wraps a job-spec validation failure (HTTP 400).
	ErrInvalidSpec = errors.New("service: invalid job spec")
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the job worker pool size — how many jobs execute
	// concurrently (default 2). Each job additionally fans out internally
	// per its spec's Workers field.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64); submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// CacheDir, when non-empty, roots the content-addressed sweep-point
	// cache shared by every sweep job (and by CLI runs pointed at the
	// same directory). Sweep jobs then resume: previously computed points
	// are served from disk.
	CacheDir string
	// DataDir, when non-empty, makes results durable: every finished
	// job's artifacts are also written to <DataDir>/<jobID>.json and
	// .csv.
	DataDir string
	// WorkerTTL is how long a joined cluster worker stays in the fleet
	// without a fresh heartbeat (default DefaultWorkerTTL). Tests shrink
	// it to exercise expiry quickly.
	WorkerTTL time.Duration
	// MonitorInterval is the fleet-health sampling cadence (default
	// DefaultMonitorInterval). Tests shrink it to drive the monitor
	// quickly.
	MonitorInterval time.Duration
	// Tenants, when non-empty, turns on tenant authentication: the
	// /v1/jobs endpoints require "Authorization: Bearer <key>", job
	// visibility is scoped to the owning tenant, quotas are enforced on
	// submission, and queued jobs are claimed fair-share across tenants.
	// Load a set from disk with LoadTenants.
	Tenants []Tenant
	// EventKeepalive is the idle-stream keepalive cadence of
	// /v1/jobs/{id}/events (default DefaultEventKeepalive). Tests shrink
	// it to observe keepalive frames quickly.
	EventKeepalive time.Duration
	// SnapshotEvery is how many WAL records accumulate before the durable
	// store compacts them into a snapshot (default DefaultSnapshotEvery;
	// only meaningful with a DataDir).
	SnapshotEvery int
}

// Stats is the service's aggregate state, served at /v1/stats.
type Stats struct {
	// UptimeSec is the seconds since the service started.
	UptimeSec float64 `json:"uptime_sec"`
	// Workers is the configured worker pool size.
	Workers int `json:"workers"`
	// QueueDepth is the number of jobs queued and not yet claimed.
	QueueDepth int `json:"queue_depth"`
	// Queued counts jobs waiting for a worker.
	Queued int `json:"queued"`
	// Running counts jobs currently executing.
	Running int `json:"running"`
	// Done counts jobs finished successfully.
	Done int `json:"done"`
	// Failed counts jobs that ended with a kernel error.
	Failed int `json:"failed"`
	// Cancelled counts jobs cancelled by a client or by shutdown.
	Cancelled int `json:"cancelled"`
	// PointsDone counts finished sweep grid points since start.
	PointsDone int64 `json:"points_done"`
	// PointsPerSec is PointsDone over the uptime.
	PointsPerSec float64 `json:"points_per_sec"`
	// CacheHits counts the points served from the sweep cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheHitRate is CacheHits/PointsDone (0 when no points ran).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Draining reports that Close has begun: no new jobs are accepted.
	Draining bool `json:"draining"`
	// WALErrors counts write-ahead-log append/compaction failures since
	// start. Non-zero means durability is degraded (a restart may lose
	// recent records) while the in-memory store keeps serving.
	WALErrors int64 `json:"wal_errors,omitempty"`
	// Tenants is the per-tenant view — quota state and job-state counts —
	// present only when tenant authentication is configured.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// Service is the daemon core: a bounded job queue, a worker pool that
// executes jobs through the sweep and simulation layers, per-job event
// logs, and finished artifacts. Create one with New, expose it with
// Handler, stop it with Close. All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	store *store

	// The queue is a deque guarded by qmu rather than a buffered
	// channel: cancelling a queued job must free its capacity slot
	// immediately, which a channel cannot do (the tombstone would occupy
	// the buffer until a worker drains it). qlive counts the queued,
	// not-yet-terminal records — the number capacity checks and
	// Stats.QueueDepth report; qitems may additionally hold tombstones
	// of jobs cancelled while queued, which workers skip. Without
	// tenants the claim order is FIFO; with tenants, pop picks
	// fair-share across tenants (qrunning/lastPop track per-tenant
	// claims, all under qmu) and FIFO within each tenant.
	qmu      sync.Mutex
	qcond    *sync.Cond
	qitems   []qitem
	qlive    int
	qclosed  bool
	qrunning map[string]int   // claimed-and-unfinished jobs per tenant
	lastPop  map[string]int64 // popSeq of each tenant's most recent claim
	popSeq   int64

	sealMu sync.RWMutex // guards sealed vs. submissions
	sealed bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	start      time.Time

	pointsDone   atomic.Int64
	pointsCached atomic.Int64

	// execute runs one claimed job and returns its artifacts; tests
	// substitute a controllable fake to exercise the lifecycle machinery.
	execute func(ctx context.Context, rec *record) (jsonArtifact, csvArtifact []byte, err error)

	distMu      sync.RWMutex
	distributor Distributor

	registry workerRegistry

	// mon control-charts the daemon's own gauges (points/sec, cache hit
	// rate, queue depth, worker heartbeat ages, tenant active counts);
	// monitorLoop feeds it and monOnce/monStop stop the loop — and the
	// WAL compaction loop — exactly once on Close.
	mon     *monitor.Monitor
	monStop chan struct{}
	monOnce sync.Once

	// wal is the durable store's write-ahead log (nil without a DataDir);
	// compactCh kicks the compaction loop when enough records accumulate.
	wal       *wal
	compactCh chan struct{}

	// Tenant enforcement state: tenants (by name, guarded by tenMu) holds
	// the mutable quota counters; tenantKeys (key → name) is immutable
	// after New and read lock-free by the HTTP auth check.
	tenMu      sync.Mutex
	tenants    map[string]*tenantState
	tenantKeys map[string]string
}

// qitem is one queue entry: the record plus its tenant, denormalized so
// fair-share selection under qmu never needs a record lock (Cancel locks
// a record and then takes qmu, so the reverse order would deadlock).
type qitem struct {
	rec    *record
	tenant string
}

// Distributor runs a sweep job across a remote worker fleet instead of
// locally. internal/cluster implements it and cmd/antsimd wires it in with
// SetDistributor, keeping the dependency arrow service ← cluster acyclic.
// It returns handled=false to decline (e.g. no live workers joined), in
// which case the service falls back to local execution; progress receives
// one event per merged grid point, exactly like a local run's.
type Distributor func(ctx context.Context, spec JobSpec, progress func(sweep.Progress)) (rep *sweep.Report, handled bool, err error)

// SetDistributor installs the distributed-sweep executor consulted by
// every subsequent sweep job. Call it before the daemon starts accepting
// submissions; passing nil restores pure local execution.
func (s *Service) SetDistributor(d Distributor) {
	s.distMu.Lock()
	s.distributor = d
	s.distMu.Unlock()
}

// getDistributor returns the installed distributor, or nil.
func (s *Service) getDistributor() Distributor {
	s.distMu.RLock()
	defer s.distMu.RUnlock()
	return s.distributor
}

// New builds and starts a Service: the worker pool is running and Submit
// is immediately usable. With a DataDir, New first replays the write-ahead
// log on top of the last snapshot — restoring every job's id, event log
// (Seq numbers included) and artifacts byte-identically — then re-enqueues
// jobs that were queued at shutdown and re-executes jobs that were running
// at crash time (their artifacts stay byte-identical by construction:
// execution is deterministic and previously computed points come from the
// cache).
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheDir != "" {
		if _, err := sweep.NewCache(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = DefaultMonitorInterval
	}
	if cfg.EventKeepalive <= 0 {
		cfg.EventKeepalive = DefaultEventKeepalive
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := validateTenants(cfg.Tenants); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	st := newStore()
	var w *wal
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: create data dir: %w", err)
		}
		lastSeg, err := st.replayDurable(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		w, err = openWAL(cfg.DataDir, lastSeg, cfg.SnapshotEvery)
		if err != nil {
			return nil, err
		}
		st.attachWAL(w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		store:      st,
		qrunning:   make(map[string]int),
		lastPop:    make(map[string]int64),
		baseCtx:    ctx,
		baseCancel: cancel,
		start:      time.Now(),
		mon:        monitor.New(monitor.Config{Mode: monitor.Linear}),
		monStop:    make(chan struct{}),
		wal:        w,
		compactCh:  make(chan struct{}, 1),
	}
	s.qcond = sync.NewCond(&s.qmu)
	s.registry.ttl = cfg.WorkerTTL
	s.execute = s.executeJob
	if len(cfg.Tenants) > 0 {
		s.tenants = make(map[string]*tenantState, len(cfg.Tenants))
		s.tenantKeys = make(map[string]string, len(cfg.Tenants))
		for _, t := range cfg.Tenants {
			s.tenants[t.Name] = &tenantState{cfg: t}
			s.tenantKeys[t.Key] = t.Name
		}
	}
	if w != nil {
		w.notify = func() {
			select {
			case s.compactCh <- struct{}{}:
			default:
			}
		}
		s.recoverDurable()
		s.wg.Add(1)
		go s.compactLoop()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.monitorLoop()
	return s, nil
}

// recoverDurable re-enqueues replayed jobs that still need a worker:
// queued jobs re-enter the queue as they were, jobs that were running at
// crash time get a fresh queued state event (durably logged) and run
// again, and a done job whose artifact files went missing is re-executed
// rather than served a hole. Runs before the worker pool starts.
func (s *Service) recoverDurable() {
	now := time.Now()
	for _, job := range s.store.list() {
		rec, ok := s.store.get(job.ID)
		if !ok {
			continue
		}
		requeue := false
		rec.mu.Lock()
		switch rec.job.State {
		case StateQueued:
			requeue = true
		case StateRunning:
			rec.setStateLocked(StateQueued, "", now)
			requeue = true
		case StateDone:
			jsonB, jerr := os.ReadFile(filepath.Join(s.cfg.DataDir, rec.job.ID+".json"))
			csvB, cerr := os.ReadFile(filepath.Join(s.cfg.DataDir, rec.job.ID+".csv"))
			if jerr == nil && cerr == nil {
				rec.artifactJSON, rec.artifactCSV = jsonB, csvB
			} else {
				rec.setStateLocked(StateQueued, "", now)
				requeue = true
			}
		}
		tenant := rec.job.Tenant
		rec.mu.Unlock()
		if requeue {
			s.qmu.Lock()
			s.qitems = append(s.qitems, qitem{rec: rec, tenant: tenant})
			s.qlive++
			s.qmu.Unlock()
			s.tenantRecover(tenant)
		}
	}
}

// compactLoop runs WAL compactions kicked by append volume until Close.
func (s *Service) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.monStop:
			return
		case <-s.compactCh:
			s.compactWAL()
		}
	}
}

// compactWAL bounds replay cost: rotate to a fresh segment, snapshot the
// in-memory store (a superset of everything in the rotated-out segments —
// WAL appends happen under the record locks the snapshot takes), publish
// it atomically, and only then delete the old segments. A crash anywhere
// in between is safe: replay applies the snapshot first and skips
// whatever the surviving segments duplicate.
func (s *Service) compactWAL() {
	defer s.wal.compactionDone()
	old := s.wal.rotate()
	snap := s.store.snapshotAll()
	if err := writeSnapshot(s.wal.dir, snap); err != nil {
		s.wal.errs.Add(1)
		return // keep the old segments: they still cover the un-snapshotted state
	}
	for _, p := range old {
		_ = os.Remove(p)
	}
}

// Submit normalizes and validates the spec, registers a queued job, and
// hands it to the worker pool. It returns the job snapshot (state queued),
// an ErrInvalidSpec-wrapped validation error, ErrClosed when the service
// is draining, or ErrQueueFull at capacity.
func (s *Service) Submit(spec JobSpec) (Job, error) {
	return s.SubmitAs("", spec)
}

// SubmitAs is Submit on behalf of a named tenant: the job records the
// tenant, the tenant's quotas are enforced (an ErrQuota-wrapped
// *QuotaError when exhausted), and the queue serves its jobs fair-share
// against other tenants'. An empty tenant bypasses quota enforcement
// (internal submissions and daemons without tenant auth).
func (s *Service) SubmitAs(tenant string, spec JobSpec) (Job, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	if s.sealed {
		return Job{}, ErrClosed
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	// Capacity counts live queued jobs only — a rejected submission is
	// never registered, so it is never transiently visible in the store.
	if s.qlive >= s.cfg.QueueDepth {
		return Job{}, ErrQueueFull
	}
	if err := s.tenantAdmit(tenant, time.Now()); err != nil {
		return Job{}, err
	}
	rec := s.store.add(spec, tenant, time.Now())
	s.qitems = append(s.qitems, qitem{rec: rec, tenant: tenant})
	s.qlive++
	s.qcond.Signal()
	return rec.snapshot(), nil
}

// queuedGone releases one live-queued slot: the record left the queued
// state (a worker claimed it, or it was cancelled while waiting).
func (s *Service) queuedGone() {
	s.qmu.Lock()
	s.qlive--
	s.qmu.Unlock()
}

// pop blocks until a queue entry is available (possibly a tombstone of a
// job cancelled while queued, which the caller skips) or the queue is
// closed and drained. Without tenants the order is plain FIFO. With
// tenants it is fair-share: among tenants with queued work, claim from
// the one with the fewest claimed-and-unfinished jobs, breaking ties
// toward the tenant served longest ago, FIFO within the tenant — so one
// tenant's burst cannot starve another's steady trickle.
func (s *Service) pop() (qitem, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for len(s.qitems) == 0 {
		if s.qclosed {
			return qitem{}, false
		}
		s.qcond.Wait()
	}
	i := 0
	if s.tenants != nil {
		i = s.fairPickLocked()
	}
	it := s.qitems[i]
	copy(s.qitems[i:], s.qitems[i+1:])
	s.qitems[len(s.qitems)-1] = qitem{}
	s.qitems = s.qitems[:len(s.qitems)-1]
	s.popSeq++
	s.lastPop[it.tenant] = s.popSeq
	s.qrunning[it.tenant]++
	return it, true
}

// fairPickLocked chooses the queue index to claim next under the
// fair-share policy. Callers hold qmu and guarantee the queue is
// non-empty.
func (s *Service) fairPickLocked() int {
	best := -1
	var bestRun int
	var bestLast int64
	seen := make(map[string]bool)
	for i, it := range s.qitems {
		if seen[it.tenant] {
			continue // a later entry can never beat the tenant's first (FIFO within tenant)
		}
		seen[it.tenant] = true
		run, last := s.qrunning[it.tenant], s.lastPop[it.tenant]
		if best == -1 || run < bestRun || (run == bestRun && last < bestLast) {
			best, bestRun, bestLast = i, run, last
		}
	}
	return best
}

// claimDone retires one claimed queue entry: the worker finished (or
// skipped) the job, so the tenant's claimed-and-unfinished count drops.
func (s *Service) claimDone(tenant string) {
	s.qmu.Lock()
	if s.qrunning[tenant] > 1 {
		s.qrunning[tenant]--
	} else {
		delete(s.qrunning, tenant)
	}
	s.qmu.Unlock()
}

// Job returns a snapshot of the job with the given id.
func (s *Service) Job(id string) (Job, error) {
	rec, ok := s.store.get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	return rec.snapshot(), nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []Job { return s.store.list() }

// Cancel requests cancellation of a job. A queued job transitions to
// cancelled immediately; a running job is cancelled asynchronously at its
// next point boundary (watch the event stream for the terminal state). It
// returns ErrTerminal when the job already finished.
func (s *Service) Cancel(id string) (Job, error) {
	rec, ok := s.store.get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	rec.mu.Lock()
	cancelledQueued := false
	switch {
	case rec.job.State == StateQueued:
		rec.setStateLocked(StateCancelled, "cancelled while queued", time.Now())
		s.queuedGone() // free the capacity slot right away
		cancelledQueued = true
	case rec.job.State == StateRunning:
		if rec.cancelFn != nil {
			rec.cancelFn()
		}
	default:
		rec.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %s is %s", ErrTerminal, id, rec.job.State)
	}
	job := rec.job
	rec.mu.Unlock()
	if cancelledQueued {
		s.tenantDone(job.Tenant)
	}
	return job, nil
}

// Artifact returns a finished job's result artifact in the given format
// ("json" or "csv"). It returns ErrNotDone until the job reaches the done
// state.
func (s *Service) Artifact(id, format string) ([]byte, error) {
	rec, ok := s.store.get(id)
	if !ok {
		return nil, ErrNotFound
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.job.State != StateDone {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotDone, id, rec.job.State)
	}
	switch format {
	case "", "json":
		return rec.artifactJSON, nil
	case "csv":
		return rec.artifactCSV, nil
	default:
		return nil, fmt.Errorf("%w, got %q", ErrBadFormat, format)
	}
}

// Stats returns the service's aggregate state.
func (s *Service) Stats() Stats {
	s.qmu.Lock()
	depth := s.qlive
	s.qmu.Unlock()
	st := Stats{
		UptimeSec:  time.Since(s.start).Seconds(),
		Workers:    s.cfg.Workers,
		QueueDepth: depth,
		PointsDone: s.pointsDone.Load(),
		CacheHits:  s.pointsCached.Load(),
	}
	st.Draining = s.draining()
	if s.wal != nil {
		st.WALErrors = s.wal.errs.Load()
	}
	jobs := s.store.list()
	for _, j := range jobs {
		switch j.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	st.Tenants = s.tenantStats(jobs, time.Now())
	if st.UptimeSec > 0 {
		st.PointsPerSec = float64(st.PointsDone) / st.UptimeSec
	}
	if st.PointsDone > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(st.PointsDone)
	}
	return st
}

// draining reports whether Close has begun.
func (s *Service) draining() bool {
	s.sealMu.RLock()
	defer s.sealMu.RUnlock()
	return s.sealed
}

// Close drains the service: new submissions are rejected, still-queued
// jobs are cancelled, and running jobs are given until ctx's deadline to
// finish. If the deadline strikes first, running jobs are cancelled at
// their next point boundary (the sweep cache stays consistent — entries
// commit atomically per point) and Close returns ctx's error; otherwise it
// returns nil. Close is idempotent.
func (s *Service) Close(ctx context.Context) error {
	s.sealMu.Lock()
	s.sealed = true
	s.sealMu.Unlock()

	// Cancel everything still waiting in the queue; workers skip the
	// tombstones while draining.
	for _, j := range s.store.list() {
		if j.State == StateQueued {
			if rec, ok := s.store.get(j.ID); ok {
				rec.mu.Lock()
				cancelled := false
				if rec.job.State == StateQueued {
					rec.setStateLocked(StateCancelled, "cancelled by shutdown", time.Now())
					s.queuedGone()
					cancelled = true
				}
				tenant := rec.job.Tenant
				rec.mu.Unlock()
				if cancelled {
					s.tenantDone(tenant)
				}
			}
		}
	}
	s.qmu.Lock()
	if !s.qclosed {
		s.qclosed = true
		s.qcond.Broadcast()
	}
	s.qmu.Unlock()
	s.monOnce.Do(func() { close(s.monStop) })

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.wal.close()
		return nil
	case <-ctx.Done():
	}
	s.baseCancel()
	<-done
	s.wal.close()
	return ctx.Err()
}

// worker claims jobs off the queue until it closes and drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		it, ok := s.pop()
		if !ok {
			return
		}
		s.runOne(it.rec)
		s.claimDone(it.tenant)
	}
}

// runOne drives one claimed record through the lifecycle: running, then
// done/failed/cancelled depending on the executor's outcome.
func (s *Service) runOne(rec *record) {
	rec.mu.Lock()
	if rec.job.State != StateQueued { // tombstone: cancelled while queued
		rec.mu.Unlock()
		return
	}
	s.queuedGone() // the record leaves the queued population
	ctx, cancel := context.WithCancel(s.baseCtx)
	rec.cancelFn = cancel
	rec.setStateLocked(StateRunning, "", time.Now())
	id := rec.job.ID
	tenant := rec.job.Tenant
	rec.mu.Unlock()
	defer cancel()

	jsonB, csvB, err := s.execute(ctx, rec)

	// Durability ordering: the artifacts land on disk (atomically, via
	// temp+rename) before the done event enters the WAL, so a replayed
	// done job always finds its files; a crash between the two replays as
	// still-running and re-executes. An artifact write failure fails the
	// job — a durable daemon must not claim done for results it cannot
	// serve after a restart.
	if err == nil && s.cfg.DataDir != "" {
		if werr := writeFileAtomic(filepath.Join(s.cfg.DataDir, id+".json"), jsonB); werr != nil {
			err = fmt.Errorf("service: persist artifact: %w", werr)
		} else if werr := writeFileAtomic(filepath.Join(s.cfg.DataDir, id+".csv"), csvB); werr != nil {
			err = fmt.Errorf("service: persist artifact: %w", werr)
		}
	}

	rec.mu.Lock()
	switch {
	case err != nil && ctx.Err() != nil:
		rec.setStateLocked(StateCancelled, err.Error(), time.Now())
	case err != nil:
		rec.setStateLocked(StateFailed, err.Error(), time.Now())
	default:
		rec.artifactJSON, rec.artifactCSV = jsonB, csvB
		rec.setStateLocked(StateDone, "", time.Now())
	}
	rec.mu.Unlock()
	s.tenantDone(tenant)
}

// executeJob is the real executor: it dispatches on the spec kind and
// returns the JSON and CSV artifacts.
func (s *Service) executeJob(ctx context.Context, rec *record) ([]byte, []byte, error) {
	spec := rec.snapshot().Spec
	switch spec.Kind {
	case KindSweep:
		return s.executeSweep(ctx, rec, spec)
	case KindScenario:
		return s.executeScenario(ctx, rec, spec)
	case KindShard, KindSynth:
		return s.executeGrid(ctx, rec, spec)
	default:
		return nil, nil, fmt.Errorf("service: unknown job kind %q", spec.Kind)
	}
}

// executeSweep runs a registered sweep exactly like `antsim -sweep`: same
// grid, kernel and options as a grid job (gridOptions), same Summary
// artifacts. With a CacheDir the run resumes from previously computed
// points; cache provenance shows up in the JSON artifact's metadata but
// never changes the CSV bytes.
func (s *Service) executeSweep(ctx context.Context, rec *record, spec JobSpec) ([]byte, []byte, error) {
	g, point, _, err := spec.ResolveGrid()
	if err != nil {
		return nil, nil, err
	}
	rec.setTotal(g.Size())
	opts, err := s.gridOptions(rec, spec)
	if err != nil {
		return nil, nil, err
	}
	var rep *sweep.Report
	if d := s.getDistributor(); d != nil {
		// Distributed execution: the cluster layer shards the grid across
		// joined workers and merges a report identical to a local run's.
		// handled=false (no live fleet) falls through to local execution.
		drep, handled, err := d(ctx, spec, opts.Progress)
		if err != nil {
			return nil, nil, err
		}
		if handled {
			rep = drep
		}
	}
	if rep == nil {
		if rep, err = sweep.RunContext(ctx, g, point, opts); err != nil {
			return nil, nil, err
		}
	}
	sum := rep.Summary()
	jsonB, err := sum.JSON()
	if err != nil {
		return nil, nil, err
	}
	return jsonB, []byte(sum.CSV()), nil
}

// scenarioArtifactSchemaVersion versions the scenario-job artifact layout.
const scenarioArtifactSchemaVersion = 1

// scenarioArtifact is the JSON result of a scenario job. Every field is a
// deterministic function of the normalized spec; there is no timing, so
// the JSON (and the derived CSV) is byte-stable across runs, hosts and
// worker counts.
type scenarioArtifact struct {
	SchemaVersion int     `json:"schema_version"`
	Spec          JobSpec `json:"spec"`
	Scenario      string  `json:"scenario"` // canonical spec string
	World         string  `json:"world"`
	Targets       int     `json:"targets"`
	Audit         string  `json:"audit"`
	FoundFrac     float64 `json:"found_frac"`
	Samples       int     `json:"samples"`
	MeanMoves     float64 `json:"mean_moves"`
	CI95Moves     float64 `json:"ci95_moves"`
	MedianMoves   float64 `json:"median_moves"`
	MinMoves      float64 `json:"min_moves"`
	MaxMoves      float64 `json:"max_moves"`
}

// executeScenario runs one scenario configuration exactly like
// `antsim -scenario`: scenario overlay on a sim.Config, RunTrials, and a
// deterministic summary artifact. Scenario jobs have no per-point
// progress (trials run inside one engine call); cancellation abandons
// the in-flight engine call — the goroutine finishes in the background
// and its result is discarded — so shutdown never blocks on it.
func (s *Service) executeScenario(ctx context.Context, rec *record, spec JobSpec) ([]byte, []byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	scn, err := scenario.Build(spec.Scenario, spec.D)
	if err != nil {
		return nil, nil, err
	}
	factory, audit, err := experiment.BuildAlgorithm(spec.Algo, spec.D, spec.N, spec.Ell)
	if err != nil {
		return nil, nil, err
	}
	cfg := scn.Apply(sim.Config{
		NumAgents:  spec.N,
		MoveBudget: spec.Budget,
		Workers:    spec.Workers,
	})
	rec.setTotal(spec.Trials)
	type trialsOutcome struct {
		st  *sim.TrialStats
		err error
	}
	outcome := make(chan trialsOutcome, 1) // buffered: an abandoned run must not leak its goroutine
	go func() {
		st, err := sim.RunTrials(cfg, factory, spec.Trials, spec.Seed)
		outcome <- trialsOutcome{st, err}
	}()
	var st *sim.TrialStats
	select {
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case out := <-outcome:
		if out.err != nil {
			return nil, nil, out.err
		}
		st = out.st
	}
	art := scenarioArtifact{
		SchemaVersion: scenarioArtifactSchemaVersion,
		Spec:          spec,
		Scenario:      scn.Spec,
		World:         scn.WorldName(),
		Targets:       len(scn.Targets),
		Audit:         audit,
		FoundFrac:     st.FoundFrac,
	}
	if len(st.Moves) > 0 {
		sum, err := stats.Summarize(st.Moves)
		if err != nil {
			return nil, nil, err
		}
		art.Samples = sum.N
		art.MeanMoves = sum.Mean
		art.CI95Moves = sum.CI95
		art.MedianMoves = sum.Median
		art.MinMoves = sum.Min
		art.MaxMoves = sum.Max
	}
	rec.progress(spec.Trials, spec.Trials, "trials="+strconv.Itoa(spec.Trials), false)
	jsonB, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	jsonB = append(jsonB, '\n')
	return jsonB, []byte(scenarioCSV(art)), nil
}

// scenarioCSV renders a scenario artifact as a one-row CSV using the
// sweep layer's shared quoting and float-format rules — a canonical
// scenario spec like "torus:crash=0.1,l=48" contains commas and must be
// quoted.
func scenarioCSV(a scenarioArtifact) string {
	var b strings.Builder
	b.WriteString("scenario,world,targets,found_frac,samples,mean,ci95,median,min,max\n")
	fmt.Fprintf(&b, "%s,%s,%d,%s,%d,%s,%s,%s,%s,%s\n",
		sweep.CSVField(a.Scenario), sweep.CSVField(a.World), a.Targets,
		sweep.CSVFloat(a.FoundFrac), a.Samples,
		sweep.CSVFloat(a.MeanMoves),
		sweep.CSVFloat(a.CI95Moves),
		sweep.CSVFloat(a.MedianMoves),
		sweep.CSVFloat(a.MinMoves),
		sweep.CSVFloat(a.MaxMoves))
	return b.String()
}
