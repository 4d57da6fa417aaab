package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/sweep"
)

// ShardArtifactSchemaVersion versions the shard-job artifact layout.
const ShardArtifactSchemaVersion = 1

// ShardPoint is one grid point of a shard artifact: the point's expansion
// index and parameters, its result, and whether the serving worker had it
// cached (metadata only — the result bytes are identical either way).
type ShardPoint struct {
	// Index is the point's position in the grid's expansion order.
	Index int `json:"index"`
	// Params bind every axis name to one value, in axis order.
	Params []sweep.Param `json:"params"`
	// Cached reports whether the worker served the point from its local
	// content-addressed cache instead of recomputing it.
	Cached bool `json:"cached"`
	// Result is the point's kernel result.
	Result *sweep.Result `json:"result"`
}

// ShardArtifact is the JSON result of a shard job: the grid identity the
// points belong to plus one entry per requested index, in request order.
// The coordinator (internal/cluster) merges shard artifacts from many
// workers into a single report byte-identical to a local run's.
type ShardArtifact struct {
	// SchemaVersion is ShardArtifactSchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Sweep is the registered sweep id the shard belongs to.
	Sweep string `json:"sweep"`
	// Grid identifies the expanded grid the indexes refer to.
	Grid string `json:"grid"`
	// GridVersion is the grid's kernel-semantics version.
	GridVersion int `json:"grid_version"`
	// Seed is the sweep's root seed.
	Seed uint64 `json:"seed"`
	// Trials is the per-point trial count.
	Trials int `json:"trials"`
	// Points hold the computed grid points in request order.
	Points []ShardPoint `json:"points"`
}

// ParseShardArtifact decodes and sanity-checks a shard artifact fetched
// from a worker's /result endpoint.
func ParseShardArtifact(data []byte) (*ShardArtifact, error) {
	var art ShardArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("service: parse shard artifact: %w", err)
	}
	if art.SchemaVersion != ShardArtifactSchemaVersion {
		return nil, fmt.Errorf("service: shard artifact schema %d, want %d", art.SchemaVersion, ShardArtifactSchemaVersion)
	}
	for _, sp := range art.Points {
		if sp.Result == nil {
			return nil, fmt.Errorf("service: shard artifact point %d has no result", sp.Index)
		}
	}
	return &art, nil
}

// shardArtifacts renders a shard or synth job's computed points as a
// ShardArtifact, the worker half of distributed grid work
// (internal/cluster), plus a CSV of the summary table restricted to the
// job's rows (handy for eyeballing, not used by the coordinator). With a
// CacheDir, points the worker already held were served as cache hits (no
// kernel call), which is what makes cache federation ship metadata
// instead of recomputation.
func shardArtifacts(spec JobSpec, label string, rep *sweep.Report) ([]byte, []byte, error) {
	art := &ShardArtifact{
		SchemaVersion: ShardArtifactSchemaVersion,
		Sweep:         label,
		Grid:          rep.Grid.Name,
		GridVersion:   rep.Grid.Version,
		Seed:          spec.Seed,
		Trials:        rep.Grid.Trials,
		Points:        make([]ShardPoint, len(rep.Points)),
	}
	for i, pr := range rep.Points {
		art.Points[i] = ShardPoint{
			Index:  pr.Point.Index,
			Params: pr.Point.Params,
			Cached: pr.Cached,
			Result: pr.Result,
		}
	}
	jsonB, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	jsonB = append(jsonB, '\n')
	return jsonB, []byte(rep.Summary().CSV()), nil
}

// gridOptions are the sweep options every job runs under, mirroring
// `antsim -sweep`: the spec's seed, point-level sharding as the
// parallelism with each point's engines single-threaded, the daemon's
// cache with resume, and per-point progress into the job record and the
// daemon's counters. A scenario grid has one point, so there the spec's
// Workers keeps its documented meaning: the engine worker bound.
func (s *Service) gridOptions(rec *record, spec JobSpec) (sweep.Options, error) {
	opts := sweep.Options{
		Seed:    spec.Seed,
		Shards:  spec.Workers,
		Workers: 1,
		Progress: func(p sweep.Progress) {
			s.pointsDone.Add(1)
			if p.Cached {
				s.pointsCached.Add(1)
			}
			rec.progress(p.Done, p.Total, p.Point.String(), p.Cached)
		},
	}
	if spec.Kind == KindScenario {
		opts.Shards, opts.Workers = 1, spec.Workers
	}
	if s.cfg.CacheDir != "" {
		cache, err := sweep.NewCache(s.cfg.CacheDir)
		if err != nil {
			return sweep.Options{}, err
		}
		opts.Cache = cache
		opts.Resume = true
	}
	return opts, nil
}
