package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"tsteiner/internal/gnn"
	"tsteiner/internal/obs"
)

// ModelCache is the resident trained-evaluator cache: train once per
// design family, refine many. Lookup order is memory → disk → build, with
// singleflight so concurrent jobs of one family train exactly once — the
// waiters block on the leader's flight and share its model.
//
// Determinism: a cache hit hands out a clone of a model that a cache miss
// would have trained to the exact same bytes (training is deterministic
// in the request inputs), so hit-vs-miss — which DOES depend on load and
// arrival order — never shows in job artifacts. Every Get returns a
// private clone, so concurrent refiners never share live tensors.
type ModelCache struct {
	dir string
	obs *obs.Sink

	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one family's build in progress (or completed, kept as the
// memory cache). err != nil flights are evicted by the next Get.
type flight struct {
	done chan struct{}
	m    *gnn.Model
	err  error
}

// NewModelCache opens the cache over a directory of saved models
// (normally <spool>/models). sink receives hit/miss/corrupt counters and
// may be nil.
func NewModelCache(dir string, sink *obs.Sink) *ModelCache {
	return &ModelCache{dir: dir, obs: sink, flights: map[string]*flight{}}
}

func (c *ModelCache) path(family string) string {
	return filepath.Join(c.dir, family+".json")
}

// Cached returns the family's model if it is already resident (waiting
// out an in-progress build) or validly persisted on disk, without ever
// building or registering one. Deadline-carrying jobs use this read-only
// path: they may benefit from a complete cached model, but must never
// write into the cache — their own training may have been truncated by
// the budget, and a truncated model cached under a full-epochs family key
// would poison every later job of the family.
func (c *ModelCache) Cached(family string) (*gnn.Model, bool) {
	c.mu.Lock()
	if fl, ok := c.flights[family]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err == nil {
			c.obs.Add("serve.model_cache_hits", 1)
			return fl.m.Clone(), true
		}
		return nil, false
	}
	c.mu.Unlock()
	if m, err := gnn.Load(c.path(family)); err == nil {
		c.obs.Add("serve.model_cache_hits", 1)
		return m, true
	}
	return nil, false
}

// Get returns the family's model, building it at most once per process
// (and at most once ever, if the build persists its result): memory hit,
// then disk hit, then build. The returned model is always a private
// clone. A failed or interrupted build is not cached — the next Get for
// the family retries (resuming from the build's checkpoint, if it left
// one).
func (c *ModelCache) Get(family string, build func() (*gnn.Model, error)) (*gnn.Model, error) {
	c.mu.Lock()
	for {
		fl, ok := c.flights[family]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-fl.done
		if fl.err == nil {
			c.obs.Add("serve.model_cache_hits", 1)
			return fl.m.Clone(), nil
		}
		// The leader failed; evict its flight (if still current) and
		// compete to rebuild.
		c.mu.Lock()
		if cur, ok := c.flights[family]; ok && cur == fl {
			delete(c.flights, family)
		}
	}

	// Disk hit: a model persisted by an earlier process. A corrupt file
	// is counted and treated as a miss — the cache must never poison a
	// job, and a rebuild overwrites it with valid bytes.
	if m, err := gnn.Load(c.path(family)); err == nil {
		fl := &flight{done: make(chan struct{}), m: m}
		close(fl.done)
		c.flights[family] = fl
		c.mu.Unlock()
		c.obs.Add("serve.model_cache_hits", 1)
		return m.Clone(), nil
	} else if !os.IsNotExist(err) {
		c.obs.Add("serve.model_cache_corrupt", 1)
	}

	fl := &flight{done: make(chan struct{})}
	c.flights[family] = fl
	c.mu.Unlock()
	c.obs.Add("serve.model_cache_misses", 1)

	m, err := build()
	if err == nil {
		if serr := m.Save(c.path(family)); serr != nil {
			err = fmt.Errorf("serve: persist model %s: %w", family, serr)
		}
	}
	if err != nil {
		fl.err = err
		c.mu.Lock()
		if cur, ok := c.flights[family]; ok && cur == fl {
			delete(c.flights, family)
		}
		c.mu.Unlock()
		close(fl.done)
		return nil, err
	}
	// Cache a detached clone: m's parameters still point at the training
	// tape, which would pin its workspace buffers for the process's life.
	fl.m = m.Clone()
	close(fl.done)
	return m.Clone(), nil
}
