// Package cluster is the distributed sweep execution layer: a coordinator
// that splits an experiment grid across a fleet of remote antsimd workers
// and merges their per-point results into a report byte-identical to a
// local `antsim -sweep` run.
//
// The moving parts:
//
//   - Cluster holds a fleet (worker base URLs) and the dispatch policy
//     (shard size, heartbeat cadence, coordinator cache).
//   - Dispatch is the outcome of one distributed run: the merged
//     sweep.Report plus distribution accounting (shards, reassignments,
//     steals, cache provenance).
//   - Shards are contiguous chunks of cache-miss grid-point indexes,
//     executed remotely as KindShard jobs (a registered sweep's grid) or
//     KindSynth jobs (a synthesis evaluation grid, via SynthEvaluator)
//     through sweep.RunPoints on each worker (internal/service).
//
// Fault model: a worker that stops answering (transport error, or
// HeartbeatMisses consecutive failed liveness probes while a shard is in
// flight) is declared dead — its in-flight shard is requeued for the
// surviving workers exactly once per failure and the dead worker receives
// no further shards. Stragglers are handled by speculative work stealing:
// once the queue is drained, an idle worker duplicates the
// longest-straggling shard still in flight (in flight for at least
// Config.StealAfter), the first completion commits, and the loser is
// cancelled at its next point boundary. Both mechanisms preserve the
// exactly-once merge invariant:
// every grid point appears exactly once in the merged report, enforced by
// fill-once commit bookkeeping and checked before the report is returned.
//
// Cache federation: the coordinator consults its local content-addressed
// cache first (with Resume) and ships only cache-miss points; returned
// points are written back, so a repeated distributed run ships nothing.
// Workers consult their own caches symmetrically — a cold coordinator
// driving warm workers ships point indexes and receives results as pure
// metadata, with zero kernel calls anywhere.
//
// Determinism contract: the merged report is a function of the job spec
// (sweep, quick, seed; or candidates, eval config, seed) only — never of
// fleet size, shard boundaries, worker failures, steals, or cache state.
// This is inherited from the sweep layer's per-point determinism (seeds
// derive from point parameters, not expansion order) and pinned by the
// conformance tests.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/sweep"
)

// Config parameterizes a Cluster.
type Config struct {
	// Workers are the fleet's antsimd base URLs ("http://host:port" or
	// "host:port"). At least one is required; duplicates are rejected.
	Workers []string
	// ShardSize is the number of grid points per dispatched shard
	// (0 = auto: about four shards per worker, minimum one point).
	ShardSize int
	// CacheDir, when non-empty, roots the coordinator's local
	// content-addressed cache: consulted before shipping (with Resume) and
	// fed with every returned point, so repeated distributed runs are warm.
	CacheDir string
	// Resume serves coordinator-cache hits instead of shipping them.
	Resume bool
	// Heartbeat is the liveness-probe cadence for workers with a shard in
	// flight (default 2s).
	Heartbeat time.Duration
	// HeartbeatMisses is how many consecutive failed probes declare a
	// worker dead (default 3).
	HeartbeatMisses int
	// StealAfter is how long a shard must be in flight before an idle
	// worker may speculatively duplicate it (default 1s). It keeps
	// stealing aimed at genuine stragglers instead of duplicating every
	// tail shard of a healthy fleet.
	StealAfter time.Duration
	// Health, when non-nil, receives one "fleet_rtt:<worker>" sample per
	// successful heartbeat probe — the probe's round-trip seconds — so a
	// daemon's /v1/monitor control charts cover its dispatch fleet. Nil
	// disables the sampling.
	Health *monitor.Monitor
}

// Cluster is a coordinator over a fixed worker fleet. Build one with New;
// its Dispatch method runs registered sweeps across the fleet. A Cluster
// is stateless between dispatches and safe for sequential reuse.
type Cluster struct {
	cfg     Config
	workers []string
}

// New validates the fleet and returns a coordinator.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: fleet needs at least one worker")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	workers := make([]string, 0, len(cfg.Workers))
	for _, w := range cfg.Workers {
		norm, err := service.NormalizeWorkerURL(w)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if seen[norm] {
			return nil, fmt.Errorf("cluster: duplicate worker %s", norm)
		}
		seen[norm] = true
		workers = append(workers, norm)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = time.Second
	}
	return &Cluster{cfg: cfg, workers: workers}, nil
}

// Workers returns the normalized fleet.
func (c *Cluster) Workers() []string {
	return append([]string(nil), c.workers...)
}

// Request names one distributed sweep run.
type Request struct {
	// Sweep is the registered sweep id ("e1", "e5", "s1", "s2").
	Sweep string
	// Quick shrinks the grid and trial counts (antsim -quick).
	Quick bool
	// Seed is the sweep's root seed.
	Seed uint64
	// Workers bounds each shard job's internal concurrency on its worker
	// (0 = the worker's GOMAXPROCS). Results never depend on it.
	Workers int
	// Progress, when non-nil, receives one event per merged grid point. It
	// is called from coordinator goroutines and must be safe for
	// concurrent use.
	Progress func(Progress)
}

// Progress is one distributed-run progress event: a grid point was merged
// (from the coordinator cache or from a worker shard).
type Progress struct {
	// Done points so far and Total points in the grid.
	Done, Total int
	// Point is the merged grid point.
	Point sweep.Point
	// Worker is the base URL of the worker that served the point, or ""
	// for a coordinator-cache hit.
	Worker string
	// Cached reports that no kernel ran for the point anywhere — it came
	// from the coordinator's or the serving worker's cache.
	Cached bool
}

// Stats is the distribution accounting of one dispatch.
type Stats struct {
	// Workers is the fleet size at dispatch start.
	Workers int
	// Failed lists the workers declared dead during the run.
	Failed []string
	// Shards is the number of shards built from cache-miss points.
	Shards int
	// Reassigned counts shard requeues after a worker failure.
	Reassigned int
	// Backpressure counts shard attempts deferred because a worker
	// answered 503 (job queue full or draining) — the shard is requeued
	// and the worker backs off briefly, but stays in the fleet.
	Backpressure int
	// Stolen counts speculative duplicate attempts of in-flight shards by
	// idle workers.
	Stolen int
	// Shipped counts the grid points sent to workers (coordinator-cache
	// misses).
	Shipped int
	// LocalHits counts the points served from the coordinator's cache.
	LocalHits int
	// RemoteHits counts shipped points the serving worker had cached.
	RemoteHits int
}

// Dispatch is the outcome of one distributed sweep run: the merged report
// — identical to what a local run of the same (sweep, quick, seed)
// produces — plus the distribution accounting.
type Dispatch struct {
	// Report is the merged sweep report, one point per grid cell in
	// expansion order.
	Report *sweep.Report
	// Stats is the run's distribution accounting.
	Stats Stats
}

// attempt is one in-flight execution of a shard on one worker.
type attempt struct {
	shard   *shardState
	worker  string
	cancel  context.CancelFunc
	ctx     context.Context
	started time.Time
	jobID   string // set once the remote job is submitted
}

// shardState is the lifecycle record of one shard: queued → in flight
// (possibly on several workers at once, after a steal) → done.
type shardState struct {
	indexes  []int
	done     bool
	stolen   bool // speculated once already
	attempts []*attempt
}

// dispatcher is the shared coordination state of one Dispatch call.
type dispatcher struct {
	mu   sync.Mutex
	cond *sync.Cond

	queue  []*shardState
	shards []*shardState
	undone int
	live   int // workers still alive
	abort  error

	results []sweep.PointResult
	filled  []bool
	done    int

	st Stats
}

// plan is one distributed run: the job spec whose grid points are
// dispatched, and that grid's expansion. The worker job for a set of
// point indexes is the spec with Points set, so sweep shards (Dispatch,
// NewDistributor) and synthesis evaluations (SynthEvaluator) share every
// mechanism: heartbeat failure detection, requeue, backpressure, work
// stealing, cache federation, and the exactly-once merge.
type plan struct {
	// spec is the worker job, KindShard or KindSynth, without Points.
	spec service.JobSpec
	// grid is the expanded grid the spec names; points its expansion.
	grid   sweep.Grid
	points []sweep.Point
	// progress, when non-nil, receives one event per merged point.
	progress func(Progress)
}

// Dispatch runs one registered sweep across the fleet and returns the
// merged report plus distribution accounting. Cancellation via ctx drains
// the fleet: in-flight shard jobs are cancelled remotely at their next
// grid-point boundary before Dispatch returns ctx's error.
func (c *Cluster) Dispatch(ctx context.Context, req Request) (*Dispatch, error) {
	return c.run(ctx, service.JobSpec{
		Kind:    service.KindSweep,
		Sweep:   req.Sweep,
		Quick:   req.Quick,
		Seed:    req.Seed,
		Workers: req.Workers,
	}, req.Progress)
}

// run is the one entry of every distributed run (Dispatch,
// NewDistributor, SynthEvaluator). It validates spec — a KindSweep or
// KindSynth job — before any worker sees it, resolves its grid the way
// the workers will, and dispatches the grid's points as KindShard (for a
// sweep) or KindSynth jobs.
func (c *Cluster) run(ctx context.Context, spec service.JobSpec, progress func(Progress)) (*Dispatch, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g, _, _, err := spec.ResolveGrid()
	if err != nil {
		return nil, err
	}
	if spec.Kind == service.KindSweep {
		spec.Kind = service.KindShard
	}
	return c.dispatch(ctx, plan{spec: spec, grid: g, points: g.Points(), progress: progress})
}

// dispatch is the shared coordinator core: phase-1 local cache consult,
// phase-2 shard fan-out over the fleet, exactly-once merge.
func (c *Cluster) dispatch(ctx context.Context, pl plan) (*Dispatch, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := pl.grid
	if err := g.Validate(); err != nil {
		return nil, err
	}
	points := pl.points

	var cache *sweep.Cache
	if c.cfg.CacheDir != "" {
		var err error
		cache, err = sweep.NewCache(c.cfg.CacheDir)
		if err != nil {
			return nil, err
		}
	}

	d := &dispatcher{
		results: make([]sweep.PointResult, len(points)),
		filled:  make([]bool, len(points)),
		live:    len(c.workers),
	}
	d.cond = sync.NewCond(&d.mu)
	d.st.Workers = len(c.workers)
	start := time.Now()

	// Phase 1: consult the coordinator cache; only misses are shipped.
	var pending []int
	for i, p := range points {
		if cache != nil && c.cfg.Resume {
			if res, ok := cache.Get(sweep.KeyFor(g, p, pl.spec.Seed)); ok {
				d.results[i] = sweep.PointResult{Point: p, Cached: true, Result: res}
				d.filled[i] = true
				d.st.LocalHits++
				d.done++
				if pl.progress != nil {
					pl.progress(Progress{Done: d.done, Total: len(points), Point: p, Cached: true})
				}
				continue
			}
		}
		pending = append(pending, i)
	}
	d.st.Shipped = len(pending)

	// Phase 2: shard the misses and run the fleet.
	if len(pending) > 0 {
		size := c.cfg.ShardSize
		if size <= 0 {
			size = len(pending) / (len(c.workers) * 4)
			if size < 1 {
				size = 1
			}
		}
		for lo := 0; lo < len(pending); lo += size {
			hi := lo + size
			if hi > len(pending) {
				hi = len(pending)
			}
			sh := &shardState{indexes: pending[lo:hi:hi]}
			d.shards = append(d.shards, sh)
			d.queue = append(d.queue, sh)
		}
		d.undone = len(d.shards)
		d.st.Shards = len(d.shards)

		// Wake idle waiters when the caller cancels, so they can exit.
		watchDone := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				d.cond.Broadcast()
			case <-watchDone:
			}
		}()

		var wg sync.WaitGroup
		for _, w := range c.workers {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				c.runWorker(ctx, d, addr, pl, cache)
			}(w)
		}
		wg.Wait()
		close(watchDone)

		if d.abort != nil {
			return nil, d.abort
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: dispatch of grid %s cancelled: %w", g.Name, err)
		}
	}

	// Exactly-once merge invariant: every grid point filled, none twice
	// (fill-once bookkeeping makes twice impossible; missing means a bug
	// in the scheduler, so fail loudly rather than emit a short artifact).
	for i, ok := range d.filled {
		if !ok {
			return nil, fmt.Errorf("cluster: internal error: grid point %d never merged", i)
		}
	}
	sort.Strings(d.st.Failed)
	rep := &sweep.Report{
		Grid:       g,
		Seed:       pl.spec.Seed,
		Points:     d.results,
		CacheHits:  d.st.LocalHits + d.st.RemoteHits,
		Computed:   len(points) - d.st.LocalHits - d.st.RemoteHits,
		ElapsedSec: time.Since(start).Seconds(),
	}
	return &Dispatch{Report: rep, Stats: d.st}, nil
}

// backpressureLimit bounds how many consecutive 503 (queue full /
// draining) answers a worker may give before it is treated as dead
// anyway — it keeps a permanently saturated worker from stalling the
// dispatch forever while tolerating transient backpressure.
const backpressureLimit = 40

// runWorker is one fleet member's dispatch loop: claim (or steal) shards
// until the run completes, the worker dies, or the dispatch aborts. A
// worker answering 503 is busy, not dead: its shard is requeued for the
// fleet and this loop backs off briefly before claiming again.
func (c *Cluster) runWorker(ctx context.Context, d *dispatcher, addr string, pl plan, cache *sweep.Cache) {
	client := service.NewClient(addr)
	busy := 0
	for {
		at := d.next(ctx, addr, c.cfg.StealAfter)
		if at == nil {
			return
		}
		dead, backpressure := c.runAttempt(ctx, d, client, at, pl, cache)
		if backpressure {
			if busy++; busy < backpressureLimit {
				time.Sleep(c.cfg.Heartbeat / 8)
				continue
			}
			dead = true // saturated beyond patience: treat as lost
		} else {
			busy = 0
		}
		if dead {
			d.workerDead(at)
			return
		}
	}
}

// next blocks until the worker can start an attempt: a queued shard, or —
// when the queue is drained but shards are still in flight elsewhere — a
// speculative duplicate of a shard that has straggled for at least
// stealAfter (work stealing). It returns nil when the run is over for
// this worker.
func (d *dispatcher) next(ctx context.Context, worker string, stealAfter time.Duration) *attempt {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.abort != nil || ctx.Err() != nil || d.undone == 0 {
			return nil
		}
		for len(d.queue) > 0 {
			sh := d.queue[0]
			d.queue[0] = nil
			d.queue = d.queue[1:]
			if sh.done {
				continue // completed by a thief while requeued
			}
			return d.newAttemptLocked(ctx, sh, worker)
		}
		sh, wait := d.stealCandidateLocked(worker, stealAfter)
		if sh != nil {
			sh.stolen = true
			d.st.Stolen++
			return d.newAttemptLocked(ctx, sh, worker)
		}
		if wait > 0 {
			// A candidate exists but has not straggled long enough yet;
			// poll rather than wait — ripening is time, not an event.
			d.mu.Unlock()
			if wait > 50*time.Millisecond {
				wait = 50 * time.Millisecond
			}
			time.Sleep(wait)
			d.mu.Lock()
			continue
		}
		d.cond.Wait()
	}
}

// newAttemptLocked registers a new attempt of sh on worker. Callers hold
// d.mu.
func (d *dispatcher) newAttemptLocked(ctx context.Context, sh *shardState, worker string) *attempt {
	actx, cancel := context.WithCancel(ctx)
	at := &attempt{shard: sh, worker: worker, cancel: cancel, ctx: actx, started: time.Now()}
	sh.attempts = append(sh.attempts, at)
	return at
}

// stealCandidateLocked picks the tail shard to speculate on: the
// longest-straggling undone shard with exactly one live attempt owned by
// another worker, not yet speculated, in flight for at least stealAfter.
// When candidates exist but none is ripe, it returns the time until the
// ripest one matures. Callers hold d.mu.
func (d *dispatcher) stealCandidateLocked(worker string, stealAfter time.Duration) (*shardState, time.Duration) {
	var (
		best     *shardState
		bestAge  time.Duration
		soonest  time.Duration
		anyGreen bool
	)
	now := time.Now()
	for _, sh := range d.shards {
		if sh.done || sh.stolen || len(sh.attempts) != 1 {
			continue
		}
		if sh.attempts[0].worker == worker {
			continue
		}
		age := now.Sub(sh.attempts[0].started)
		if age >= stealAfter {
			if best == nil || age > bestAge {
				best, bestAge = sh, age
			}
			continue
		}
		if remaining := stealAfter - age; !anyGreen || remaining < soonest {
			anyGreen, soonest = true, remaining
		}
	}
	if best != nil {
		return best, 0
	}
	if anyGreen {
		return nil, soonest
	}
	return nil, 0
}

// dropAttemptLocked removes at from its shard's live-attempt list.
// Callers hold d.mu.
func dropAttemptLocked(at *attempt) {
	sh := at.shard
	for i, a := range sh.attempts {
		if a == at {
			sh.attempts = append(sh.attempts[:i], sh.attempts[i+1:]...)
			return
		}
	}
}

// runAttempt executes one shard attempt end to end: submit the shard job,
// watch the worker's liveness, wait for the terminal state, fetch and
// merge the artifact. It reports whether the worker must be declared dead.
func (c *Cluster) runAttempt(ctx context.Context, d *dispatcher, client *service.Client, at *attempt, pl plan, cache *sweep.Cache) (dead, backpressure bool) {
	defer at.cancel()

	// Heartbeat watchdog: probe liveness while the shard is in flight;
	// HeartbeatMisses consecutive failures cancel the attempt, which the
	// classification below treats as a dead worker.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		ticker := time.NewTicker(c.cfg.Heartbeat)
		defer ticker.Stop()
		misses := 0
		for {
			select {
			case <-hbStop:
				return
			case <-at.ctx.Done():
				return
			case <-ticker.C:
				hctx, hcancel := context.WithTimeout(at.ctx, c.cfg.Heartbeat)
				probeStart := time.Now()
				err := client.Healthz(hctx)
				hcancel()
				if err == nil {
					if c.cfg.Health != nil {
						c.cfg.Health.Observe("fleet_rtt:"+at.worker, time.Since(probeStart).Seconds(), time.Now())
					}
					misses = 0
					continue
				}
				if misses++; misses >= c.cfg.HeartbeatMisses {
					at.cancel()
					return
				}
			}
		}
	}()

	spec := pl.spec
	spec.Points = at.shard.indexes
	job, err := client.Submit(at.ctx, spec)
	if err == nil {
		d.mu.Lock()
		at.jobID = job.ID
		d.mu.Unlock()
		var final service.Job
		final, err = client.Wait(at.ctx, job.ID)
		if err == nil && final.State != service.StateDone {
			// Cancelled remotely (e.g. the worker is draining for
			// shutdown): not a kernel error, treat as a lost worker.
			err = fmt.Errorf("cluster: shard job %s on %s ended %s (%s)", job.ID, at.worker, final.State, final.Error)
		}
	}
	if err != nil {
		return d.attemptFailed(ctx, client, at, err)
	}

	data, err := client.Result(at.ctx, job.ID, "")
	if err != nil {
		return d.attemptFailed(ctx, client, at, err)
	}
	art, err := service.ParseShardArtifact(data)
	if err == nil {
		err = verifyShardArtifact(art, at.shard.indexes, pl.grid, pl.points)
	}
	if err != nil {
		// A malformed or mismatched artifact is indistinguishable from a
		// corrupt worker; requeue the shard elsewhere.
		return d.attemptFailed(ctx, client, at, err)
	}
	d.commit(at, art, pl, cache)
	return false, false
}

// attemptFailed classifies a failed attempt. Kernel failures (the remote
// job ended failed) abort the whole dispatch — they are deterministic and
// would fail on every worker. A lost race with a thief is benign. Caller
// cancellation drains the remote job. A 503 answer (queue full, draining)
// is backpressure: the shard is requeued but the worker stays alive.
// Everything else declares the worker dead and requeues the shard.
func (d *dispatcher) attemptFailed(ctx context.Context, client *service.Client, at *attempt, err error) (dead, backpressure bool) {
	var jfe *service.JobFailedError
	if errors.As(err, &jfe) {
		d.abortWith(at, fmt.Errorf("cluster: shard on %s: %w", at.worker, jfe))
		return false, false
	}
	if ctx.Err() != nil {
		// The dispatch itself was cancelled: drain the remote job at its
		// next point boundary, best effort.
		cancelRemote(client, at)
		d.mu.Lock()
		dropAttemptLocked(at)
		d.cond.Broadcast()
		d.mu.Unlock()
		return false, false
	}
	var apiErr *service.APIError
	busy := errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable
	d.mu.Lock()
	if at.shard.done {
		// Lost the steal race; the winner cancelled this attempt.
		dropAttemptLocked(at)
		d.mu.Unlock()
		cancelRemote(client, at)
		return false, false
	}
	dropAttemptLocked(at)
	at.shard.stolen = false // allow the requeued shard to be speculated again
	d.queue = append(d.queue, at.shard)
	if busy {
		d.st.Backpressure++
	} else {
		d.st.Reassigned++
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return !busy, busy
}

// workerDead records a worker's death. The last death with work still
// outstanding aborts the dispatch — there is nobody left to run it.
func (d *dispatcher) workerDead(at *attempt) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st.Failed = append(d.st.Failed, at.worker)
	d.live--
	if d.live == 0 && d.undone > 0 && d.abort == nil {
		d.abort = fmt.Errorf("cluster: all %d workers failed with %d shards outstanding", d.st.Workers, d.undone)
	}
	d.cond.Broadcast()
}

// abortWith aborts the dispatch with a deterministic error.
func (d *dispatcher) abortWith(at *attempt, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dropAttemptLocked(at)
	if d.abort == nil {
		d.abort = err
	}
	d.cond.Broadcast()
}

// verifyShardArtifact checks a worker's artifact against the shard it was
// asked to run: same grid identity, exactly the requested indexes in
// order, and parameters matching the coordinator's own expansion — a
// version-skewed worker whose grid expands differently must be rejected,
// not merged.
func verifyShardArtifact(art *service.ShardArtifact, idxs []int, g sweep.Grid, points []sweep.Point) error {
	if art.Grid != g.Name || art.GridVersion != g.Version || art.Trials != g.Trials {
		return fmt.Errorf("cluster: shard artifact grid %s v%d trials %d, want %s v%d trials %d",
			art.Grid, art.GridVersion, art.Trials, g.Name, g.Version, g.Trials)
	}
	if len(art.Points) != len(idxs) {
		return fmt.Errorf("cluster: shard artifact has %d points, want %d", len(art.Points), len(idxs))
	}
	for i, sp := range art.Points {
		if sp.Index != idxs[i] {
			return fmt.Errorf("cluster: shard artifact point %d has index %d, want %d", i, sp.Index, idxs[i])
		}
		want := points[sp.Index].Params
		if len(sp.Params) != len(want) {
			return fmt.Errorf("cluster: shard artifact point %d has %d params, want %d", sp.Index, len(sp.Params), len(want))
		}
		for j := range want {
			if sp.Params[j] != want[j] {
				return fmt.Errorf("cluster: shard artifact point %d param %s=%q, want %s=%q — worker grid expansion differs",
					sp.Index, sp.Params[j].Name, sp.Params[j].Value, want[j].Name, want[j].Value)
			}
		}
	}
	return nil
}

// commit merges a completed shard into the run: fill-once per point,
// write-back to the coordinator cache, progress events, and cancellation
// of any losing duplicate attempts.
func (d *dispatcher) commit(at *attempt, art *service.ShardArtifact, pl plan, cache *sweep.Cache) {
	total := len(pl.points)
	type merged struct {
		pr   sweep.PointResult
		done int
	}
	var newly []merged
	var losers []*attempt

	d.mu.Lock()
	if at.shard.done {
		// A duplicate attempt already committed; results are identical by
		// the determinism contract, so this one is simply discarded.
		dropAttemptLocked(at)
		d.mu.Unlock()
		return
	}
	at.shard.done = true
	d.undone--
	dropAttemptLocked(at)
	losers = append(losers, at.shard.attempts...)
	for _, sp := range art.Points {
		if d.filled[sp.Index] {
			continue // impossible for disjoint shards; guarded anyway
		}
		d.filled[sp.Index] = true
		pr := sweep.PointResult{Point: pl.points[sp.Index], Cached: sp.Cached, Result: sp.Result}
		d.results[sp.Index] = pr
		if sp.Cached {
			d.st.RemoteHits++
		}
		d.done++
		newly = append(newly, merged{pr: pr, done: d.done})
	}
	d.cond.Broadcast()
	d.mu.Unlock()

	// Losing duplicates are cancelled at their next point boundary; their
	// own goroutines observe shard.done and discard the outcome.
	for _, l := range losers {
		l.cancel()
	}
	for _, m := range newly {
		if cache != nil {
			// Write-back keeps the federation warm; a full disk costs only
			// the warmth, never the run.
			_ = cache.Put(sweep.KeyFor(pl.grid, m.pr.Point, pl.spec.Seed), m.pr.Result)
		}
		if pl.progress != nil {
			pl.progress(Progress{Done: m.done, Total: total, Point: m.pr.Point, Worker: at.worker, Cached: m.pr.Cached})
		}
	}
}

// cancelRemote cancels an attempt's remote job so the worker stops at its
// next grid-point boundary. Best effort with its own short deadline — the
// attempt's context is typically already dead.
func cancelRemote(client *service.Client, at *attempt) {
	if at.jobID == "" {
		return
	}
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _ = client.Cancel(cctx, at.jobID)
}
