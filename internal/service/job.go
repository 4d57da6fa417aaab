// Package service is the simulation-as-a-service layer behind cmd/antsimd:
// a long-running daemon core that accepts experiment jobs over HTTP/JSON,
// executes them on a bounded worker pool reusing the sweep orchestration
// layer (internal/sweep) and its content-addressed cache, streams per-point
// progress as NDJSON or SSE, and serves durable result artifacts that are
// byte-identical to what the equivalent antsim CLI invocation emits.
//
// The moving parts:
//
//   - JobSpec names the work: a registered sweep (internal/experiment), a
//     single scenario configuration (internal/scenario), or a subset of a
//     sweep's or a synthesis evaluation's grid points (the worker half of
//     internal/cluster) plus parameters.
//   - Job is the lifecycle record: queued → running → done | failed |
//     cancelled, with progress counters and timestamps.
//   - Service owns the queue, the worker pool, the per-job event logs and
//     the finished artifacts; Handler exposes it as an http.Handler over
//     the routes in RouteTable.
//   - Client is the Go client of that HTTP API, used by the tests, the
//     facade examples and cmd/antsimd's smoke tooling.
//
// Determinism contract: a job's result artifacts are a function of its
// normalized spec only — never of queue position, worker count, cache
// state, or whether the job ran in a daemon or as a CLI invocation. The
// CSV artifact is byte-stable; the JSON artifact additionally carries
// timing and cache-provenance metadata (see DESIGN.md §7).
package service

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// JobState is one station of the job lifecycle state machine.
type JobState string

// The job lifecycle states. Transitions: queued → running → done | failed;
// queued → cancelled (cancel or shutdown before a worker claims the job);
// running → cancelled (cancel or shutdown drain timeout — observed at the
// next grid-point boundary for sweep jobs, by abandoning the in-flight
// engine call for scenario jobs). done, failed and cancelled are terminal.
const (
	// StateQueued: accepted and waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: claimed by a worker and executing.
	StateRunning JobState = "running"
	// StateDone: finished successfully; artifacts are available.
	StateDone JobState = "done"
	// StateFailed: the kernel returned an error; Job.Error has it.
	StateFailed JobState = "failed"
	// StateCancelled: cancelled before completion (client cancel or
	// daemon shutdown); no artifacts.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final (done, failed or cancelled).
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job kinds accepted by JobSpec.Kind.
const (
	// KindSweep runs a registered experiment grid (internal/experiment)
	// through the sweep layer, exactly like `antsim -sweep`.
	KindSweep = "sweep"
	// KindScenario runs one scenario configuration (internal/scenario),
	// exactly like `antsim -scenario`.
	KindScenario = "scenario"
	// KindShard runs a subset of a registered sweep's grid points,
	// identified by expansion index. It is the worker half of distributed
	// sweeps (internal/cluster): a coordinator ships shards of cache-miss
	// points, the worker computes exactly those points (serving its own
	// cache hits without recomputing) and returns per-point results.
	KindShard = "shard"
	// KindSynth scores a batch of candidate machine specs on the
	// synthesis evaluation grid (internal/synth): the worker half of
	// distributed machine synthesis. Like KindShard it computes the
	// requested grid points — here (candidate, distance) cells — through
	// its local cache and returns a shard artifact the coordinator
	// merges.
	KindSynth = "synth"
)

// JobSpec describes one experiment job. Kind selects which of the four
// kinds the spec names; the remaining fields parameterize it. The zero
// values of the optional fields are filled in by Normalize with the same
// defaults the antsim CLI uses, so a spec submitted over the wire and the
// equivalent CLI invocation describe identical computations.
type JobSpec struct {
	// Kind is KindSweep, KindScenario, KindShard or KindSynth.
	Kind string `json:"kind"`

	// Sweep is the registered sweep id ("e1", "e5", "s1", "s2", "s3");
	// KindSweep and KindShard.
	Sweep string `json:"sweep,omitempty"`
	// Quick shrinks the sweep's grid and trial counts (antsim -quick);
	// KindSweep and KindShard.
	Quick bool `json:"quick,omitempty"`
	// Points are the grid-point expansion indexes a grid job computes
	// (unique, each in [0, grid size) of the grid ResolveGrid names):
	// required for KindShard; optional for KindSynth, where empty means
	// every (candidate, distance) cell.
	Points []int `json:"points,omitempty"`

	// Scenario is the scenario spec string ("torus:l=48", "crash", ...);
	// KindScenario only.
	Scenario string `json:"scenario,omitempty"`
	// Algo names the algorithm to run on the scenario (see
	// experiment.AlgorithmNames; default "non-uniform"); KindScenario only.
	Algo string `json:"algo,omitempty"`
	// D is the nominal target distance (default 64); KindScenario only.
	D int64 `json:"d,omitempty"`
	// N is the agent count (default 4); KindScenario only.
	N int `json:"n,omitempty"`
	// Ell is the base-coin precision ℓ (default 1); KindScenario only.
	Ell uint `json:"ell,omitempty"`
	// Budget is the per-agent move budget (default 512·D²); KindScenario
	// only.
	Budget uint64 `json:"budget,omitempty"`
	// Trials is the number of independent trials (scenario default 20,
	// synth default 32); KindScenario and KindSynth.
	Trials int `json:"trials,omitempty"`

	// SynthSpecs are the candidate machine specs to score, as canonical
	// compact JSON (synth.CompactJSON), no duplicates; KindSynth only.
	SynthSpecs []string `json:"synth_specs,omitempty"`
	// SynthDs are the hit-time curve distances (default {8, 16});
	// KindSynth only.
	SynthDs []int64 `json:"synth_ds,omitempty"`
	// SynthAgents is the colony size n the bound compares against
	// (default 4); KindSynth only.
	SynthAgents int `json:"synth_agents,omitempty"`
	// SynthBudgetFactor caps each agent at factor·D² moves (default 8);
	// KindSynth only.
	SynthBudgetFactor float64 `json:"synth_budget_factor,omitempty"`

	// Seed is the root random seed (default 0; pass the CLI's -seed value
	// to reproduce a CLI run).
	Seed uint64 `json:"seed"`
	// Workers bounds the job's internal concurrency: concurrently running
	// grid points for KindSweep, KindShard and KindSynth, engine workers
	// for KindScenario (0 = GOMAXPROCS). Results never depend on it.
	Workers int `json:"workers,omitempty"`
}

// Normalize fills the spec's zero-valued optional fields with the antsim
// CLI defaults, so that validation, execution and the stored job record
// all see the same fully explicit spec. Seed is the one exception: 0 is a
// valid seed and stays 0 (the CLI's -seed flag defaults to 1), so
// reproducing a CLI run requires passing its seed explicitly.
func (s *JobSpec) Normalize() {
	if s.Kind == KindSynth {
		// One source of truth for the synthesis defaults: the stored spec
		// matches what synth.EvalConfig.WithDefaults would compute.
		ec := s.synthEval().WithDefaults(false)
		s.SynthDs = ec.Ds
		s.SynthAgents = ec.Agents
		s.Trials = ec.Trials
		s.SynthBudgetFactor = ec.BudgetFactor
	}
	if s.Kind == KindScenario {
		if s.Algo == "" {
			s.Algo = "non-uniform"
		}
		if s.D == 0 {
			s.D = 64
		}
		if s.N == 0 {
			s.N = 4
		}
		if s.Ell == 0 {
			s.Ell = 1
		}
		if s.Trials == 0 {
			s.Trials = 20
		}
		if s.Budget == 0 {
			s.Budget = experiment.DefaultMoveBudget(s.D)
		}
	}
}

// Validate checks the (normalized) spec against the registries it names:
// the sweep id must be registered in internal/experiment, the synth
// candidates must build, the scenario spec must build in
// internal/scenario, the algorithm name must resolve, and a grid job's
// point indexes must be unique and in range of the grid ResolveGrid
// names. It reports the first problem found.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindSweep, KindShard:
		if s.Sweep == "" {
			return fmt.Errorf("service: %s job needs a sweep id", s.Kind)
		}
		if s.Scenario != "" || s.Algo != "" || s.D != 0 || s.N != 0 || s.Ell != 0 || s.Budget != 0 || s.Trials != 0 {
			return fmt.Errorf("service: %s job sets scenario-only fields", s.Kind)
		}
		if len(s.SynthSpecs) != 0 || len(s.SynthDs) != 0 || s.SynthAgents != 0 || s.SynthBudgetFactor != 0 {
			return fmt.Errorf("service: %s job sets synth-only fields", s.Kind)
		}
		if s.Kind == KindSweep && len(s.Points) != 0 {
			return fmt.Errorf("service: sweep job sets shard-only field points (use kind %q)", KindShard)
		}
		if s.Kind == KindShard && len(s.Points) == 0 {
			return fmt.Errorf("service: shard job needs at least one grid-point index")
		}
	case KindSynth:
		if s.Sweep != "" || s.Quick {
			return fmt.Errorf("service: synth job sets sweep-only fields")
		}
		if s.Scenario != "" || s.Algo != "" || s.D != 0 || s.N != 0 || s.Ell != 0 || s.Budget != 0 {
			return fmt.Errorf("service: synth job sets scenario-only fields")
		}
		if len(s.SynthSpecs) == 0 {
			return fmt.Errorf("service: synth job needs at least one candidate spec")
		}
		seenSpec := make(map[string]bool, len(s.SynthSpecs))
		for i, cs := range s.SynthSpecs {
			if seenSpec[cs] {
				return fmt.Errorf("service: synth candidate %d listed twice", i)
			}
			seenSpec[cs] = true
			spec, err := synth.SpecFromJSON(cs)
			if err != nil {
				return err
			}
			if _, err := spec.Build(); err != nil {
				return fmt.Errorf("service: synth candidate %d: %w", i, err)
			}
		}
		if err := s.synthEval().Validate(); err != nil {
			return err
		}
	case KindScenario:
		if s.Scenario == "" {
			return fmt.Errorf("service: scenario job needs a scenario spec (e.g. %q)", "open")
		}
		if s.Sweep != "" || s.Quick || len(s.Points) != 0 || len(s.SynthSpecs) != 0 || len(s.SynthDs) != 0 || s.SynthAgents != 0 || s.SynthBudgetFactor != 0 {
			return fmt.Errorf("service: scenario job sets sweep-only or synth-only fields")
		}
		if s.D < 1 {
			return fmt.Errorf("service: scenario job needs d ≥ 1, got %d", s.D)
		}
		if s.N < 1 {
			return fmt.Errorf("service: scenario job needs n ≥ 1, got %d", s.N)
		}
		if s.Trials < 1 {
			return fmt.Errorf("service: scenario job needs trials ≥ 1, got %d", s.Trials)
		}
		if _, err := scenario.Build(s.Scenario, s.D); err != nil {
			return err
		}
		if _, _, err := experiment.BuildAlgorithm(s.Algo, s.D, s.N, s.Ell); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("service: job spec needs a kind (%q, %q, %q or %q)", KindSweep, KindScenario, KindShard, KindSynth)
	default:
		return fmt.Errorf("service: unknown job kind %q (valid: %q, %q, %q, %q)", s.Kind, KindSweep, KindScenario, KindShard, KindSynth)
	}
	if s.Kind != KindScenario {
		g, _, _, err := s.ResolveGrid()
		if err != nil {
			return err
		}
		size := g.Size()
		seen := make(map[int]bool, len(s.Points))
		for _, idx := range s.Points {
			if idx < 0 || idx >= size {
				return fmt.Errorf("service: %s point index %d out of range [0,%d) of grid %s", s.Kind, idx, size, g.Name)
			}
			if seen[idx] {
				return fmt.Errorf("service: %s point index %d listed twice", s.Kind, idx)
			}
			seen[idx] = true
		}
	}
	if s.Workers < 0 {
		return fmt.Errorf("service: workers must be ≥ 0, got %d", s.Workers)
	}
	return nil
}

// ResolveGrid names the grid a grid job (KindSweep, KindShard or
// KindSynth) computes: the expanded grid, its point kernel, and the label
// its shard artifacts carry. Sweep and shard specs resolve through the
// experiment registry (label: the sweep id); synth specs resolve to the
// synthesis evaluation grid over their candidates (label: "synth"). It
// is the one mapping from a spec to its grid, shared by the worker that
// executes the points and the coordinator that ships and merges them.
func (s JobSpec) ResolveGrid() (sweep.Grid, sweep.PointFunc, string, error) {
	switch s.Kind {
	case KindSweep, KindShard:
		sp, err := experiment.LookupSweep(s.Sweep)
		if err != nil {
			return sweep.Grid{}, nil, "", err
		}
		return sp.Grid(experiment.Config{Quick: s.Quick}), sp.Point, sp.Name, nil
	case KindSynth:
		return synth.EvalGrid(s.SynthSpecs, s.synthEval()), synth.Kernel, KindSynth, nil
	default:
		return sweep.Grid{}, nil, "", fmt.Errorf("service: %s job names no grid", s.Kind)
	}
}

// synthEval assembles the synth evaluation config a KindSynth spec
// describes.
func (s JobSpec) synthEval() synth.EvalConfig {
	return synth.EvalConfig{
		Ds:           s.SynthDs,
		Agents:       s.SynthAgents,
		Trials:       s.Trials,
		BudgetFactor: s.SynthBudgetFactor,
	}
}

// Job is the public record of one submitted job: the normalized spec, the
// lifecycle state, progress counters and timestamps. Values returned by
// the Service and the Client are snapshots — they do not change after
// being handed out.
type Job struct {
	// ID is the service-assigned job id ("j000001", ...).
	ID string `json:"id"`
	// Tenant names the tenant that submitted the job (empty when the
	// daemon runs without tenant authentication).
	Tenant string `json:"tenant,omitempty"`
	// Spec is the normalized job spec.
	Spec JobSpec `json:"spec"`
	// State is the lifecycle state at snapshot time.
	State JobState `json:"state"`
	// Error holds the failure (or cancellation) message for terminal
	// failed/cancelled states.
	Error string `json:"error,omitempty"`
	// Done counts finished work units: grid points for sweep jobs, trials
	// for scenario jobs.
	Done int `json:"done"`
	// Total is the job's total work units, set when the job starts
	// running (0 while queued).
	Total int `json:"total"`
	// CacheHits counts the sweep points served from the content-addressed
	// cache (always 0 for scenario jobs).
	CacheHits int `json:"cache_hits"`
	// CreatedAt timestamps the submission.
	CreatedAt time.Time `json:"created_at"`
	// StartedAt timestamps the queued → running transition (zero until
	// then).
	StartedAt time.Time `json:"started_at,omitzero"`
	// FinishedAt timestamps the transition to a terminal state (zero
	// until then).
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// Event types delivered on a job's event stream.
const (
	// EventState announces a lifecycle transition; Event.State has the
	// new state and, for terminal failures, Event.Error the message.
	EventState = "state"
	// EventPoint announces one finished work unit (a sweep grid point),
	// with Done/Total progress counters.
	EventPoint = "point"
	// EventTotal announces the job's total work units as soon as the
	// executor knows them — before the first point finishes — so stream
	// consumers (and log replay) learn the denominator even for a job
	// that fails before producing any point.
	EventTotal = "total"
)

// Event is one entry of a job's append-only event log. Streams replay the
// log from the beginning and then follow it live, so a late subscriber
// sees exactly the same sequence as an early one.
type Event struct {
	// Seq is the event's position in the job's log, starting at 0.
	Seq int `json:"seq"`
	// Job is the owning job's id.
	Job string `json:"job"`
	// Type is EventState, EventPoint or EventTotal.
	Type string `json:"type"`
	// State carries the new lifecycle state for EventState events.
	State JobState `json:"state,omitempty"`
	// Error carries the failure message of terminal failed/cancelled
	// EventState events.
	Error string `json:"error,omitempty"`
	// Done carries the finished-work-unit counter for EventPoint events.
	// Under parallel sweep shards, consecutive log entries may carry
	// out-of-order counters; the job record's Done is monotonic.
	Done int `json:"done,omitempty"`
	// Total carries the total-work-unit counter for EventPoint and
	// EventTotal events.
	Total int `json:"total,omitempty"`
	// Point renders the finished grid point ("D=8 n=4") for EventPoint
	// events.
	Point string `json:"point,omitempty"`
	// Cached reports whether the point was served from the sweep cache.
	Cached bool `json:"cached,omitempty"`
}
