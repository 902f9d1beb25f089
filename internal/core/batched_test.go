package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"tsteiner/internal/obs"
)

// trajectoryDigest is an FNV-1a digest over the raw bits of a refine
// run's trajectory: every IterRecord (WNS, TNS, Theta, Accepted, Lane),
// both best metrics and the final Steiner coordinates.
func trajectoryDigest(res *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	for _, rec := range res.History {
		putF(rec.WNS)
		putF(rec.TNS)
		putF(rec.Theta)
		acc := uint64(0)
		if rec.Accepted {
			acc = 1
		}
		put(acc)
		put(uint64(rec.Lane))
	}
	putF(res.BestWNS)
	putF(res.BestTNS)
	xs, ys, _ := res.Forest.SteinerPositions()
	for _, s := range [][]float64{xs, ys} {
		for _, v := range s {
			putF(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBatchedRefinePinned pins the multi-candidate refine loop
// (CandidateLanes = 4, every iteration run) on the fixture: the
// trajectory digest must match the one recorded with both the fused
// batched evaluation and K fresh-tape forwards per iteration agreeing
// on it.
func TestBatchedRefinePinned(t *testing.T) {
	r, _ := fixture(t)
	opt := DefaultOptions()
	opt.CandidateLanes = 4
	opt.Mu = 10 // never converge by ratio: exercise every iteration
	opt.N = 12
	r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	const want = "d94266cf503b7232"
	if got := trajectoryDigest(res); got != want {
		t.Fatalf("batched trajectory digest %s, pinned %s (history %+v)", got, want, res.History)
	}
}

// TestCandidateLanesOnePreservesDefaultPath pins CandidateLanes ∈ {0, 1}
// to the single-candidate algorithm: both run the default K = 1 lane
// path and must record the exact same trajectory, always on lane 0.
func TestCandidateLanesOnePreservesDefaultPath(t *testing.T) {
	r, _ := fixture(t)
	run := func(lanes int) *Result {
		opt := DefaultOptions()
		opt.CandidateLanes = lanes
		r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r2.Refine()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run(0)
	one := run(1)
	if def.BestWNS != one.BestWNS || def.BestTNS != one.BestTNS || def.Iterations != one.Iterations {
		t.Fatalf("CandidateLanes=1 diverged from default: (%v,%v,%d) vs (%v,%v,%d)",
			one.BestWNS, one.BestTNS, one.Iterations, def.BestWNS, def.BestTNS, def.Iterations)
	}
	for i := range def.History {
		if def.History[i] != one.History[i] {
			t.Fatalf("history[%d] diverges: %+v vs %+v", i, def.History[i], one.History[i])
		}
		if one.History[i].Lane != 0 {
			t.Fatalf("single-candidate path recorded lane %d", one.History[i].Lane)
		}
	}
}

// TestBatchedRefineUsesLaneMemo asserts the lane-granular memo actually
// fires: after an accepted multi-candidate iteration, the next gradient
// request must be served from the batched tape (counter
// core.lane_memo_hits), and every batched evaluation must report its
// lane count (counter core.batch_lanes).
func TestBatchedRefineUsesLaneMemo(t *testing.T) {
	r, _ := fixture(t)
	sink := obs.New(nil)
	prep := *r.Prep
	prep.Config.Obs = sink
	opt := DefaultOptions()
	opt.CandidateLanes = 4
	opt.Mu = 10
	opt.N = 8
	r2, err := NewRefiner(r.Model, r.Batch, &prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, h := range res.History {
		if h.Accepted {
			accepted++
		}
	}
	var sb strings.Builder
	if err := sink.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	summary := sb.String()
	if !strings.Contains(summary, "core.batch_lanes") {
		t.Fatalf("no core.batch_lanes counter in summary:\n%s", summary)
	}
	if accepted > 0 && !strings.Contains(summary, "core.lane_memo_hits") {
		t.Fatalf("%d accepted iterations but no lane memo hit:\n%s", accepted, summary)
	}
	if !strings.Contains(summary, "gnn.batch_amortized_ns") {
		t.Fatalf("no amortized-forward histogram in summary:\n%s", summary)
	}
}

func TestChooseLane(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		wns, tns []float64
		want     int
	}{
		{[]float64{-5, -3, -4}, []float64{-10, -10, -10}, 1}, // max WNS wins
		{[]float64{-5, -5, -5}, []float64{-10, -8, -9}, 1},   // WNS tie → max TNS
		{[]float64{-5, -5}, []float64{-10, -10}, 0},          // full tie → lowest lane
		{[]float64{nan, -7}, []float64{nan, -10}, 1},         // NaN never wins
		{[]float64{-7, nan}, []float64{-10, nan}, 0},         // NaN never displaces
		{[]float64{nan, nan}, []float64{nan, nan}, 0},        // all poisoned → lane 0
		{[]float64{-5, math.Inf(1)}, []float64{-10, -1}, 0},  // Inf treated as poisoned
		{[]float64{-5, -5}, []float64{-10, math.Inf(-1)}, 0}, // non-finite TNS too
		{[]float64{-9, -2, -2, -4}, []float64{-20, -6, -5, -8}, 2},
	}
	for i, c := range cases {
		if got := chooseLane(c.wns, c.tns); got != c.want {
			t.Fatalf("case %d: chooseLane=%d want %d", i, got, c.want)
		}
	}
}
