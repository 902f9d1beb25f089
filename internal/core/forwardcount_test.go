package core_test

import (
	"testing"

	"tsteiner/internal/bench"
	"tsteiner/internal/core"
	"tsteiner/internal/obs"
)

// TestRefineForwardCountPinned pins the evaluator work of the default
// (CandidateLanes ≤ 1) refine loop on the seeded bench workload: how many
// candidates are evaluated, how many gradient requests are made, and how
// many of those the forward memo serves without a fresh forward pass.
// Fewer memo hits at the same evals/grad_calls would mean an extra
// forward per iteration; more evals or grad calls would mean the loop
// itself changed.
func TestRefineForwardCountPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: prepares and refines the bench workload")
	}
	w, err := bench.NewWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{0, 1} {
		sink := obs.New(nil)
		prep := *w.Prepared
		prep.Config.Obs = sink
		opt := core.DefaultOptions()
		opt.N = bench.RefineIters
		opt.CandidateLanes = lanes
		r, err := core.NewRefiner(w.Model, w.Batch, &prep, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Refine(); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, c := range sink.Snapshot().Counters {
			got[c.Name] = c.Value
		}
		want := map[string]int64{
			"core.iterations": 6,
			"core.evals":      7, // initial metrics + one candidate per iteration
			"core.grad_calls": 8, // two adaptive-θ probes + one per iteration
			// The θ probe at the start forest reuses the initial
			// forward, and each iteration's gradient after an accepted
			// candidate reuses that candidate's forward.
			"core.memo_hits": 6,
		}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("lanes=%d: %s = %d, want %d (counters %v)", lanes, name, got[name], v, got)
			}
		}
	}
}
