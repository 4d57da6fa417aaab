package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a call from the benchmark into a layer's
// public function. Parent is the id of the span that caused it (0 for a
// root); N is the work the call did in the span's own unit (steps, points,
// draws), so per-unit costs are measured where the work happens.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	N      int64  `json:"n,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and costs one nil check per call, which is how untraced runs
// measure the end-to-end metrics.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, tag string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag, Start: now, End: -1})
	return id
}

// end closes span id, recording n units of work.
func (t *tracer) end(id int, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// add records an already-measured interval as a closed span.
func (t *tracer) add(name, tag string, parent int, start, end time.Time, n int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tag: tag, N: n,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// closed returns a copy of every span that has ended.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children that overlap each other (parallel shards) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := map[int][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// spanSet indexes closed spans for the per-layer metric formulas.
type spanSet struct {
	spans []span
	self  map[int]time.Duration
}

func newSpanSet(spans []span) *spanSet {
	return &spanSet{spans: spans, self: selfTimes(spans)}
}

// named returns the spans called name, optionally restricted to tag.
func (s *spanSet) named(name string, tag ...string) []span {
	var out []span
	for _, sp := range s.spans {
		if sp.Name == name && (len(tag) == 0 || sp.Tag == tag[0]) {
			out = append(out, sp)
		}
	}
	return out
}

// sum adds the durations and work counts of spans.
func sum(spans []span) (time.Duration, int64) {
	var d time.Duration
	var n int64
	for _, s := range spans {
		d += s.dur()
		n += s.N
	}
	return d, n
}

// durPerSpan is the mean span duration in unit.
func durPerSpan(spans []span, unit time.Duration) (float64, error) {
	if len(spans) == 0 {
		return 0, fmt.Errorf("no spans")
	}
	d, _ := sum(spans)
	return float64(d) / float64(unit) / float64(len(spans)), nil
}

// perUnit is total duration over total work, in the given unit, or an
// error naming the span when no work was recorded.
func perUnit(spans []span, name string, unit time.Duration) (float64, error) {
	d, n := sum(spans)
	if n == 0 {
		return 0, fmt.Errorf("no %s spans with work recorded", name)
	}
	return float64(d) / float64(unit) / float64(n), nil
}
