package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/sweep"
)

// paper-sweeps: one closed-loop caller regenerates every registered sweep
// table at quick size for a fresh seed per op, through sweep.RunContext
// with two shards into a cache that set-up prepared cold. One op sums all
// 42 quick points, so op costs are similar.
var paperSweeps = &workloadSpec{
	name:      "paper-sweeps",
	clients:   1,
	perSecond: 3,
	topUp:     2,
	layers:    paperLayerNames,
	plan: func(seed uint64, n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{ID: i, Kind: "tables", Seed: mix(seed, uint64(i))}
		}
		return ops
	},
	open: func(_ context.Context, dir string, _ uint64, _ bool) (workload, error) {
		cache, err := sweep.NewCache(dir + "/cache")
		if err != nil {
			return nil, err
		}
		return &paper{cache: cache}, nil
	},
}

var paperLayerNames = []string{
	"experiment.point_ms.e1", "experiment.point_ms.e5", "experiment.point_ms.s1",
	"experiment.point_ms.s2", "experiment.point_ms.s3",
	"sweep.point_overhead_ms", "sweep.cache_put_us", "sweep.shard_busy_frac",
}

const paperShards = 2

type paper struct {
	hook
	cache *sweep.Cache
}

func (w *paper) close() error { return nil }

func (w *paper) run(ctx context.Context, o op, parent int) (string, error) {
	return regenerate(ctx, o.Seed, paperShards, w.cache, w.tr(), parent)
}

// regenerate runs every registered sweep at quick size for seed and
// returns each table's digest. With a tracer it records one span per table
// (N = points), one per kernel call and one per commit (kernel end to the
// progress event, which follows the cache write).
func regenerate(ctx context.Context, seed uint64, shards int, cache *sweep.Cache, tr *tracer, parent int) (string, error) {
	var b strings.Builder
	for _, sp := range experiment.Sweeps() {
		cfg := experiment.Config{Seed: seed, Quick: true}
		g := sp.Grid(cfg)
		id := tr.begin("sweep.RunContext", sp.Name, parent)
		fn := sp.Point
		var progress func(sweep.Progress)
		if tr != nil {
			var mu sync.Mutex
			ended := map[int]time.Time{}
			kernel := sp.Point
			fn = func(p sweep.Point, c sweep.Ctx) (*sweep.Result, error) {
				t0 := time.Now()
				res, err := kernel(p, c)
				t1 := time.Now()
				tr.add("experiment.Point", sp.Name, id, t0, t1, 1)
				mu.Lock()
				ended[p.Index] = t1
				mu.Unlock()
				return res, err
			}
			progress = func(p sweep.Progress) {
				now := time.Now()
				mu.Lock()
				t1, ok := ended[p.Point.Index]
				mu.Unlock()
				if ok {
					tr.add("sweep.commit", sp.Name, id, t1, now, 1)
				}
			}
		}
		rep, err := sweep.RunContext(ctx, g, fn, sweep.Options{
			Seed: seed, Shards: shards, Workers: 1, Cache: cache, Resume: cache != nil, Progress: progress,
		})
		tr.end(id, int64(g.Size()))
		if err != nil {
			return "", err
		}
		tables, err := sp.Tables(rep)
		if err != nil {
			return "", fmt.Errorf("render %s: %w", sp.Name, err)
		}
		h := sha256.New()
		h.Write([]byte(rep.Summary().CSV()))
		for _, t := range tables {
			fmt.Fprintf(h, "%s\n%q\n%q\n%q\n", t.Title, t.Columns, t.Rows, t.Notes)
		}
		fmt.Fprintf(&b, "%s=%x\n", sp.Name, h.Sum(nil)[:8])
	}
	return b.String(), nil
}

// check re-runs one op, chosen by the list's seed, with a single shard and
// no cache: the table digests must not depend on sharding or the cache.
func (w *paper) check(ctx context.Context, ops []op, outs []opOut) []string {
	i := int(ops[0].Seed % uint64(len(ops)))
	if outs[i].err != nil {
		return nil
	}
	want, err := regenerate(ctx, ops[i].Seed, 1, nil, nil, 0)
	if err != nil {
		return []string{fmt.Sprintf("op %d: Shards: 1 reference failed: %v", i, err)}
	}
	if want != outs[i].text {
		return []string{fmt.Sprintf("op %d: table digests differ between Shards: %d with cache and Shards: 1\n%s vs\n%s", i, paperShards, outs[i].text, want)}
	}
	return nil
}

func (w *paper) layers(ss *spanSet, m map[string]metric) error {
	for _, sp := range experiment.Sweeps() {
		v, err := perUnit(ss.named("experiment.Point", sp.Name), "experiment.Point "+sp.Name, time.Millisecond)
		if err != nil {
			return err
		}
		m["experiment.point_ms."+sp.Name] = metric{v, "ms"}
	}
	put, err := perUnit(ss.named("sweep.commit"), "sweep.commit", time.Microsecond)
	if err != nil {
		return err
	}
	m["sweep.cache_put_us"] = metric{put, "us"}
	tables := ss.named("sweep.RunContext")
	var self, wall time.Duration
	var points int64
	for _, t := range tables {
		self += ss.self[t.ID]
		wall += t.dur()
		points += t.N
	}
	if points == 0 || wall == 0 {
		return fmt.Errorf("no sweep.RunContext spans")
	}
	kernel, _ := sum(ss.named("experiment.Point"))
	m["sweep.point_overhead_ms"] = metric{float64(self) / float64(time.Millisecond) / float64(points), "ms"}
	m["sweep.shard_busy_frac"] = metric{float64(kernel) / float64(paperShards*wall), "ratio"}
	return nil
}
