package core

import (
	"math"
	"strings"
	"testing"

	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/train"
)

// fixture prepares a trained refiner on spm (small, violating design).
func fixture(t *testing.T) (*Refiner, *train.Sample) {
	t.Helper()
	s, err := train.BuildSample("spm", 1.0, true, flow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	if _, err := train.Train(m, []*train.Sample{s}, train.Options{Epochs: 120, LR: 1e-2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRefiner(m, s.Batch, s.Prepared, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func TestHardMetrics(t *testing.T) {
	w, tn := hardMetrics([]float64{-1, 2, -3, 0.5})
	if w != -3 || tn != -4 {
		t.Fatalf("hardMetrics=(%g,%g) want (-3,-4)", w, tn)
	}
	w, tn = hardMetrics([]float64{1, 2})
	if w != 1 || tn != 0 {
		t.Fatalf("all-positive metrics=(%g,%g)", w, tn)
	}
	w, tn = hardMetrics(nil)
	if w != 0 || tn != 0 {
		t.Fatalf("empty metrics=(%g,%g)", w, tn)
	}
}

func TestRatioImproved(t *testing.T) {
	if !ratioImproved(-10, -8, 0.1) {
		t.Fatal("20%% improvement on -10 should trigger μ=0.1")
	}
	if ratioImproved(-10, -9.5, 0.1) {
		t.Fatal("5%% improvement should not trigger μ=0.1")
	}
	if ratioImproved(0, 1, 0.1) || ratioImproved(2, 3, 0.1) {
		t.Fatal("non-negative initial metric must not trigger")
	}
	if ratioImproved(-10, -11, 0.1) {
		t.Fatal("worsening must not trigger")
	}
}

func TestNewRefinerValidation(t *testing.T) {
	if _, err := NewRefiner(nil, nil, nil, DefaultOptions()); err == nil {
		t.Fatal("nil inputs accepted")
	}
	r, s := fixture(t)
	for _, c := range []struct {
		name  string
		field string
		set   func(*Options)
	}{
		{"zero gamma", "Gamma", func(o *Options) { o.Gamma = 0 }},
		{"NaN gamma", "Gamma", func(o *Options) { o.Gamma = math.NaN() }},
		{"+Inf gamma", "Gamma", func(o *Options) { o.Gamma = math.Inf(1) }},
		{"zero iterations", "N", func(o *Options) { o.N = 0 }},
		{"zero alpha", "Alpha", func(o *Options) { o.Alpha = 0 }},
		{"NaN alpha", "Alpha", func(o *Options) { o.Alpha = math.NaN() }},
		{"-Inf alpha", "Alpha", func(o *Options) { o.Alpha = math.Inf(-1) }},
	} {
		bad := DefaultOptions()
		// Pointer and path fields must never leak into the message.
		bad.Budget = &guard.Budget{}
		bad.Fault = fault.New(1)
		bad.CheckpointPath = "/spool/job-42/refine.ckpt"
		c.set(&bad)
		_, err := NewRefiner(r.Model, s.Batch, s.Prepared, bad)
		if err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		msg := err.Error()
		if !strings.Contains(msg, c.field) || strings.Contains(msg, "0x") ||
			strings.Contains(msg, bad.CheckpointPath) {
			t.Fatalf("%s: error %q must name %s and nothing else of the options", c.name, msg, c.field)
		}
	}
}

func TestGradientsNonZeroAndPenaltyDirection(t *testing.T) {
	r, _ := fixture(t)
	gx, gy, _, err := r.gradients(r.Prep.Forest, r.Opt.LambdaW, r.Opt.LambdaT)
	if err != nil {
		t.Fatal(err)
	}
	nz := 0
	for i := range gx {
		if gx[i] != 0 || gy[i] != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("penalty gradient is identically zero")
	}
}

func TestPenaltyConsistentWithSmoothedMetrics(t *testing.T) {
	// P = λw·w_γ + λt·t_γ with λ both negative: P must be positive for a
	// violating design (negative smoothed metrics times negative weights),
	// and descending the gradient must reduce P locally.
	r, _ := fixture(t)
	p0, err := r.Penalty(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if p0 <= 0 {
		t.Fatalf("penalty %g should be positive on a violating design", p0)
	}
	gx, gy, err := r.Gradients(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	moved := r.Prep.Forest.Clone()
	xs, ys, idx := moved.SteinerPositions()
	const step = 1e-3
	for i := range xs {
		xs[i] -= step * gx[i]
		ys[i] -= step * gy[i]
	}
	if err := moved.SetSteinerPositions(xs, ys, idx, r.Prep.Design.Die); err != nil {
		t.Fatal(err)
	}
	p1, err := r.Penalty(moved)
	if err != nil {
		t.Fatal(err)
	}
	// Allow float-level noise: Manhattan |·| kinks on zero-length edges
	// make the landscape only piecewise smooth.
	if p1 > p0*(1+1e-9) {
		t.Fatalf("gradient descent step increased penalty: %g -> %g", p0, p1)
	}
}

func TestAdaptiveThetaPositive(t *testing.T) {
	r, _ := fixture(t)
	theta, err := r.adaptiveTheta(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if theta <= 0 || math.IsInf(theta, 0) || math.IsNaN(theta) {
		t.Fatalf("theta=%g", theta)
	}
}

func TestRefineImprovesEvaluatedTiming(t *testing.T) {
	r, _ := fixture(t)
	res, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	if res.Forest == nil || len(res.History) == 0 {
		t.Fatal("empty result")
	}
	if res.BestWNS < res.InitWNS && res.BestTNS < res.InitTNS {
		t.Fatalf("refinement worsened both metrics: WNS %g->%g TNS %g->%g",
			res.InitWNS, res.BestWNS, res.InitTNS, res.BestTNS)
	}
	if res.BestWNS == res.InitWNS && res.BestTNS == res.InitTNS && res.Iterations == r.Opt.N {
		t.Log("warning: no evaluator-visible improvement found")
	}
	// The kept forest is valid and inside the die.
	if err := res.Forest.Validate(r.Prep.Design); err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Forest.Trees {
		for _, n := range tr.Nodes {
			p := n.Pos.Round()
			if !r.Prep.Design.Die.Contains(p) {
				t.Fatalf("node escaped die: %v", p)
			}
		}
	}
}

func TestRefineRespectsBestTracking(t *testing.T) {
	// Replays Algorithm 1's exact best-tracking semantics (lines 9–11):
	// when either metric beats the stored best, BOTH stored bests are
	// overwritten with the candidate's values.
	r, _ := fixture(t)
	res, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	bw, bt := res.InitWNS, res.InitTNS
	for _, h := range res.History {
		if h.WNS > bw || h.TNS > bt {
			if !h.Accepted {
				t.Fatal("improving candidate was rejected")
			}
			bw, bt = h.WNS, h.TNS
		}
	}
	if bw != res.BestWNS || bt != res.BestTNS {
		t.Fatalf("best tracking mismatch: (%g,%g) vs (%g,%g)", bw, bt, res.BestWNS, res.BestTNS)
	}
}

func TestRefineConvergenceStopsEarly(t *testing.T) {
	// With a trivially satisfied μ the loop must stop before N whenever
	// any improvement appears.
	r, _ := fixture(t)
	opt := DefaultOptions()
	opt.Mu = 1e-9
	r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedByRatio && res.Iterations == opt.N {
		t.Fatal("converged flag set only at budget exhaustion")
	}
	if res.BestWNS > res.InitWNS && !res.ConvergedByRatio {
		t.Fatal("improvement above μ=1e-9 did not trigger convergence")
	}
}

func TestRefineDoesNotMutatePreparedForest(t *testing.T) {
	r, _ := fixture(t)
	xs0, ys0, _ := r.Prep.Forest.SteinerPositions()
	if _, err := r.Refine(); err != nil {
		t.Fatal(err)
	}
	xs1, ys1, _ := r.Prep.Forest.SteinerPositions()
	for i := range xs0 {
		if xs0[i] != xs1[i] || ys0[i] != ys1[i] {
			t.Fatal("Refine mutated the prepared forest")
		}
	}
}

func TestRefineFixedThetaAblation(t *testing.T) {
	r, _ := fixture(t)
	opt := DefaultOptions()
	opt.FixedTheta = 4.0
	r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if h.Theta != 4.0 {
			t.Fatalf("fixed theta not honored: %g", h.Theta)
		}
	}
}

func TestRefineAlwaysAcceptAblation(t *testing.T) {
	r, _ := fixture(t)
	opt := DefaultOptions()
	opt.AlwaysAccept = true
	opt.Mu = 10 // never converge by ratio
	r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if !h.Accepted {
			t.Fatal("AlwaysAccept rejected a candidate")
		}
	}
}

func TestRefineDeterministic(t *testing.T) {
	r, _ := fixture(t)
	a, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	if a.BestWNS != b.BestWNS || a.BestTNS != b.BestTNS || a.Iterations != b.Iterations {
		t.Fatal("refinement not deterministic")
	}
}

func TestRefineRoundsAggregates(t *testing.T) {
	r, _ := fixture(t)
	single, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := r.RefineRounds(2)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Iterations < single.Iterations {
		t.Fatalf("2-round iterations %d < single-round %d", multi.Iterations, single.Iterations)
	}
	if len(multi.History) != multi.Iterations {
		t.Fatalf("history %d != iterations %d", len(multi.History), multi.Iterations)
	}
	// Round 2 starts where round 1 ended; bests never regress across the
	// aggregate (each round keeps its best-or-initial).
	if multi.BestTNS < single.BestTNS-1e-9 && multi.BestWNS < single.BestWNS-1e-9 {
		t.Fatalf("second round regressed both bests: (%g,%g) vs (%g,%g)",
			multi.BestWNS, multi.BestTNS, single.BestWNS, single.BestTNS)
	}
	if err := multi.Forest.Validate(r.Prep.Design); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RefineRounds(0); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestSignoffAfterRefinement(t *testing.T) {
	// End-to-end: the refined forest must route and produce a sign-off
	// report; on spm the evaluator-guided result should not catastrophically
	// regress true TNS (allow small noise).
	r, s := fixture(t)
	res, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flow.Signoff(s.Prepared, res.Forest)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Baseline
	if rep.TNS < base.TNS*1.5 {
		t.Fatalf("refined TNS %g catastrophically worse than baseline %g", rep.TNS, base.TNS)
	}
}
