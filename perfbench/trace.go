package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Parent is the ID of
// the span that caused it (0 for a root); Req groups the spans of one
// request (a flow run, a sign-off, a daemon job).
type span struct {
	ID, Parent int
	Req        string
	Name       string
	Start, End time.Duration // since the recorder's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths can share helpers.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// counts are per-layer counters recorded at the same boundaries as
	// the spans (allocations, iterations, overflow), one sample per call.
	counts map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string][]float64{}}
}

// start opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) start(name string, parent int, req string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// call runs fn inside a span named name and returns fn's error.
func (r *recorder) call(name string, parent int, req string, fn func(id int) error) error {
	id := r.start(name, parent, req)
	err := fn(id)
	r.end(id)
	return err
}

// add records an already finished span (for intervals observed through
// a callback rather than around a call).
func (r *recorder) add(name string, parent int, req string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	r.mu.Unlock()
}

// count records one sample of a per-layer counter.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] = append(r.counts[name], v)
	r.mu.Unlock()
}

// snapshot copies the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the duration in seconds of every closed span named
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// covered returns how much of root's interval the union of its direct
// children covers. Children may overlap (parallel sign-offs under one
// augment span); overlap is counted once.
func covered(spans []span, root span) time.Duration {
	var iv [][2]time.Duration
	for _, s := range spans {
		if s.Parent == root.ID {
			a, b := s.Start, s.End
			if a < root.Start {
				a = root.Start
			}
			if b > root.End {
				b = root.End
			}
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			if x[1] > curB {
				curB = x[1]
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// mallocs returns the process's cumulative heap allocation count. It
// stops the world briefly, so callers use it only around calls that run
// alone.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
