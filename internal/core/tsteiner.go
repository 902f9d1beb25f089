// Package core implements TSteiner, the paper's concurrent sign-off
// timing optimization via deep Steiner point refinement (Section III):
//
//   - the smoothed timing penalty P_γ = λ_w·w_γ + λ_t·t_γ over the
//     evaluator's predicted endpoint slacks, with Log-Sum-Exp replacing
//     the hard min in WNS and a softplus relaxation for TNS (Eq. 5–6);
//   - sign-off timing gradients (∇_Xs P, ∇_Ys P) via backward propagation
//     through the evaluator (Section III-A);
//   - the stochastic optimizer SO (Eq. 7) with the adaptive stepsize
//     scheme Adaptive_Theta (Eq. 8–9, a Barzilai–Borwein secant step);
//   - the concurrent refinement loop of Algorithm 1 with best-solution
//     tracking, λ escalation after iteration 5, movement clamped to the
//     grid boundary, and the auto-convergence rule (ratio μ).
package core

import (
	"fmt"
	"math"
	"time"

	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/obs"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/tensor"
)

// Options are TSteiner's hyper-parameters; defaults follow Section IV-A.
type Options struct {
	LambdaW float64 // WNS weight λ_w (paper: −200)
	LambdaT float64 // TNS weight λ_t (paper: −2)
	Gamma   float64 // LSE smoothing temperature γ (paper: 10)
	Alpha   float64 // adaptive-stepsize probe scale α (paper: 5)
	Mu      float64 // converge ratio μ (paper: 0.1)
	N       int     // maximum optimization iterations

	Beta1, Beta2, Eps float64 // SO hyper-parameters (Eq. 7)

	// EscalateAfter/EscalateRate: from iteration EscalateAfter on, both λ
	// are increased by EscalateRate per iteration (paper: 5 and 1%).
	EscalateAfter int
	EscalateRate  float64

	// MaxMoveDBU clamps the per-iteration displacement of each coordinate.
	MaxMoveDBU float64

	// TrustRadiusDBU bounds each Steiner point's TOTAL displacement from
	// its initial position ("we constrain the largest moving distance
	// according to the width and length of the global routing grid
	// graph"). It also keeps the search inside the region where the
	// learned evaluator was fit, so surrogate gradients stay meaningful.
	TrustRadiusDBU float64

	// RawGradient switches SO from the Adam-normalized update of Eq. 7 to
	// a plain gradient step X' = X − θ·∇P. The Barzilai–Borwein stepsize
	// of Eq. 9 is the secant inverse-curvature estimate for exactly this
	// un-normalized form; with it, low-|gradient| (noise) points barely
	// move while critical points move up to the clamp, which transfers
	// far better through the discrete routing stage.
	RawGradient bool

	// Ablation switches (all false in the paper's configuration).
	FixedTheta   float64 // >0 disables Adaptive_Theta and uses this stepsize
	AlwaysAccept bool    // disables best-solution tracking/restore

	// MaxRecoveries bounds the numerical-recovery policy: when a penalty,
	// gradient or stepsize goes non-finite, the step is discarded, the
	// loop rolls back to the tracked best forest and halves θ, and retries
	// — up to this many times across the run, after which the refiner
	// returns the best solution so far with Result.Degraded set instead of
	// an error. The surrogate never corrupts the kept solution.
	MaxRecoveries int

	// Budget bounds the refinement loop (wall clock and/or iterations,
	// checked before every iteration). On expiry the loop stops and
	// returns the best solution so far with Result.Cutoff recording the
	// reason. nil = unlimited.
	Budget *guard.Budget

	// CheckpointPath, when non-empty, makes the loop write an atomic,
	// CRC-checksummed snapshot of its full state (positions, SO moments,
	// best solution, λ escalation, θ) every CheckpointEvery iterations
	// (default 1). With Resume set, a valid checkpoint at that path is
	// loaded and the run continues from it — byte-identical to a run that
	// was never interrupted. A corrupt checkpoint fails loudly with a
	// *guard.CorruptError; a missing one starts fresh.
	CheckpointPath  string
	CheckpointEvery int
	Resume          bool

	// Fault is the deterministic fault injector (nil in production, zero
	// overhead). Armed sites: "core.nan" poisons the iteration's gradient,
	// "core.stall" delays an iteration past a wall-clock budget, and
	// "core.corner.nan" poisons the first corner's derated slack in the
	// matrix penalty (multi-corner runs only).
	Fault *fault.Injector

	// Corners enables the multi-corner matrix penalty and accept rule:
	// P = Σ_c λ_c·P_γ(slack_c) with each corner's slack the affine
	// derating of the predicted typical slack, and the lexicographic
	// accept comparing worst-corner WNS then corner-summed TNS. Empty
	// preserves the single-corner algorithm byte-for-byte (see
	// corner.go).
	Corners []CornerTerm

	// HoldGuard adds the setup/hold co-optimization veto: a candidate
	// that passes the setup accept is re-checked with a tree-geometry
	// STA at the fastest corner and rejected if it has more hold
	// violations than the round's starting forest — setup moves must
	// not create hold violations. Off by default (costs one STA per
	// otherwise-accepted iteration).
	HoldGuard bool

	// CandidateLanes sets the number K of candidate steps evaluated per
	// iteration in one fused batched forward pass: lane 0 takes the full
	// SO step (Algorithm 1's single candidate) and lane k scales the
	// displacement by 2^-k — a backtracking line search along the SO
	// direction whose K evaluations share one amortized forward over the
	// batch's precomputed structure tables. The lane with the best hard
	// metrics (max WNS, ties by TNS, then lowest lane) becomes the
	// iteration's candidate and meets the usual accept rule. Values ≤ 1
	// run the same path with K = 1, which is Algorithm 1 exactly.
	CandidateLanes int
}

// DefaultOptions mirrors the paper's experiment settings.
func DefaultOptions() Options {
	return Options{
		LambdaW:        -200.0,
		LambdaT:        -2.0,
		Gamma:          10.0,
		Alpha:          5.0,
		Mu:             0.1,
		N:              25,
		Beta1:          0.9,
		Beta2:          0.999,
		Eps:            1e-8,
		EscalateAfter:  5,
		EscalateRate:   0.01,
		MaxMoveDBU:     8,
		TrustRadiusDBU: 12,
		MaxRecoveries:  3,
	}
}

// IterRecord traces one refinement iteration.
type IterRecord struct {
	WNS, TNS float64 // evaluated metrics of the chosen candidate
	Accepted bool
	Theta    float64
	// Lane is the chosen candidate's lane (step scale 2^-Lane); always
	// 0 when CandidateLanes ≤ 1.
	Lane int
}

// Result is the outcome of a refinement run.
type Result struct {
	Forest           *rsmt.Forest // refined Steiner trees (continuous positions)
	InitWNS, InitTNS float64      // evaluator metrics before refinement
	BestWNS, BestTNS float64      // evaluator metrics of the kept solution
	Iterations       int
	ConvergedByRatio bool
	RuntimeSec       float64
	History          []IterRecord

	// Degraded is set when the numerical-recovery budget was exhausted:
	// the returned forest is the tracked best solution, which is always
	// finite and valid, but the loop stopped early. Recoveries counts how
	// many non-finite steps were discarded (0 in a healthy run). Cutoff,
	// when non-empty, records why the budget stopped the loop.
	Degraded   bool
	Recoveries int
	Cutoff     string
}

// Refiner bundles the trained evaluator with a design's batch.
type Refiner struct {
	Model *gnn.Model
	Batch *gnn.Batch
	Prep  *flow.Prepared
	Opt   Options

	// sess is the lazily-built workspace evaluation session (one per
	// refiner, hence one per worker in parallel fan-outs).
	sess *evalSession
}

// NewRefiner validates inputs and builds a refiner.
func NewRefiner(m *gnn.Model, b *gnn.Batch, p *flow.Prepared, opt Options) (*Refiner, error) {
	if m == nil || b == nil || p == nil {
		return nil, fmt.Errorf("core: nil input")
	}
	if !(opt.Gamma > 0) || !finite(opt.Gamma) {
		return nil, fmt.Errorf("core: Gamma %g, want finite > 0", opt.Gamma)
	}
	if opt.N <= 0 {
		return nil, fmt.Errorf("core: N %d, want > 0", opt.N)
	}
	if opt.Alpha == 0 || !finite(opt.Alpha) {
		return nil, fmt.Errorf("core: Alpha %g, want finite and nonzero", opt.Alpha)
	}
	if err := validateCornerTerms(opt.Corners); err != nil {
		return nil, err
	}
	return &Refiner{Model: m, Batch: b, Prep: p, Opt: opt}, nil
}

// sink returns the telemetry sink the refiner inherits from the flow
// config (nil = off). Telemetry is a side channel: nothing read from it
// ever feeds back into refinement.
func (r *Refiner) sink() *obs.Sink { return r.Prep.Config.Obs }

// evalMetrics runs a forward pass and returns hard (unsmoothed) WNS/TNS of
// the predicted endpoint slacks — the quantities Algorithm 1 compares.
func (r *Refiner) evalMetrics(f *rsmt.Forest) (wns, tns float64, err error) {
	r.sink().Add("core.evals", 1)
	_, bp, lane, err := r.session().forward(f)
	if err != nil {
		return 0, 0, err
	}
	wns, tns = r.metricsFromSlack(bp.LaneSlack(lane))
	return wns, tns, nil
}

func hardMetrics(slack []float64) (wns, tns float64) {
	wns = math.Inf(1)
	for _, s := range slack {
		if s < wns {
			wns = s
		}
		if s < 0 {
			tns += s
		}
	}
	if len(slack) == 0 {
		wns = 0
	}
	return wns, tns
}

// gradients computes (∇_Xs P, ∇_Ys P) at the forest's current positions
// for the given λ weights (Section III-A), returning the penalty value of
// the forward pass as well (free for callers, logged by telemetry).
func (r *Refiner) gradients(f *rsmt.Forest, lw, lt float64) (gx, gy []float64, pval float64, err error) {
	r.sink().Add("core.grad_calls", 1)
	return r.session().gradients(f, lw, lt)
}

// penaltyOn builds the smoothed penalty directly on a slack tensor:
//
//	w_γ = −LSE(−s; γ)                (smooth min over endpoint slacks)
//	t_γ = −γ·Σ softplus(−s/γ)        (smooth Σ min(0, s))
//
// Every op is lane-transparent, so a K-lane slack yields a K-lane 1×1
// penalty whose lane k is bit-identical to the unbatched penalty of
// candidate k — the property the lane-granular gradient memo relies on.
func (r *Refiner) penaltyOn(tp *tensor.Tape, slack *tensor.Tensor, lw, lt float64) (*tensor.Tensor, error) {
	negS, err := tp.Scale(slack, -1)
	if err != nil {
		return nil, err
	}
	lse, err := tp.LSE(negS, r.Opt.Gamma)
	if err != nil {
		return nil, err
	}
	wGamma, err := tp.Scale(lse, -1)
	if err != nil {
		return nil, err
	}
	scaled, err := tp.Scale(slack, -1/r.Opt.Gamma)
	if err != nil {
		return nil, err
	}
	sp, err := tp.Softplus(scaled)
	if err != nil {
		return nil, err
	}
	spSum, err := tp.Sum(sp)
	if err != nil {
		return nil, err
	}
	tGamma, err := tp.Scale(spSum, -r.Opt.Gamma)
	if err != nil {
		return nil, err
	}
	wTerm, err := tp.Scale(wGamma, lw)
	if err != nil {
		return nil, err
	}
	tTerm, err := tp.Scale(tGamma, lt)
	if err != nil {
		return nil, err
	}
	return tp.Add(wTerm, tTerm)
}

// Penalty evaluates the smoothed timing penalty P_γ (Eq. 4–6) at a
// forest's current positions without computing gradients.
func (r *Refiner) Penalty(f *rsmt.Forest) (float64, error) {
	r.sink().Add("core.penalty_evals", 1)
	return r.session().penalty(f, r.Opt.LambdaW, r.Opt.LambdaT)
}

// Gradients exposes the sign-off timing gradients at a forest's current
// positions under the configured λ weights — the quantity Fig. 3's
// backward pass produces. Useful for analysis tooling on top of the
// refiner.
func (r *Refiner) Gradients(f *rsmt.Forest) (gx, gy []float64, err error) {
	gx, gy, _, err = r.gradients(f, r.Opt.LambdaW, r.Opt.LambdaT)
	return gx, gy, err
}

// adaptiveTheta implements Adaptive_Theta (Eq. 8–9): probe a small move
// along the gradient and form the secant-quotient stepsize.
func (r *Refiner) adaptiveTheta(f *rsmt.Forest) (float64, error) {
	gx0, gy0, _, err := r.gradients(f, r.Opt.LambdaW, r.Opt.LambdaT)
	if err != nil {
		return 0, err
	}
	probe := f.Clone()
	xs, ys, idx := probe.SteinerPositions()
	for i := range xs {
		xs[i] += r.Opt.Alpha * gx0[i]
		ys[i] += r.Opt.Alpha * gy0[i]
	}
	if err := probe.SetSteinerPositions(xs, ys, idx, r.Prep.Design.Die); err != nil {
		return 0, err
	}
	gx1, gy1, _, err := r.gradients(probe, r.Opt.LambdaW, r.Opt.LambdaT)
	if err != nil {
		return 0, err
	}
	// θ = |ΔX|₂ / |Δ∇|₂ over the concatenated (X, Y) vector. Positions
	// may have been clamped, so measure the realized displacement.
	x0, y0, _ := f.SteinerPositions()
	x1, y1, _ := probe.SteinerPositions()
	var dPos, dGrad float64
	for i := range x0 {
		dx := x1[i] - x0[i]
		dy := y1[i] - y0[i]
		dPos += dx*dx + dy*dy
		ggx := gx1[i] - gx0[i]
		ggy := gy1[i] - gy0[i]
		dGrad += ggx*ggx + ggy*ggy
	}
	theta := math.Sqrt(dPos) / math.Sqrt(dGrad)
	if dGrad < 1e-30 || dPos < 1e-30 || !finite(theta) ||
		!finiteAll(gx0) || !finiteAll(gy0) || !finiteAll(gx1) || !finiteAll(gy1) {
		// Flat landscape — or a non-finite probe, which the secant
		// quotient must never propagate into the loop: fall back to a
		// GCell-scale stepsize so the first iterations still explore.
		r.sink().Add("core.theta_fallbacks", 1)
		return float64(r.Prep.Config.GCellSize), nil
	}
	return theta, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finiteAll(vals []float64) bool {
	for _, v := range vals {
		if !finite(v) {
			return false
		}
	}
	return true
}

// Refine runs Algorithm 1 from the prepared forest and returns the
// refined forest (positions are continuous; callers round via
// flow.Signoff's post-processing).
func (r *Refiner) Refine() (*Result, error) {
	return r.refineFrom(r.Prep.Forest, r.Opt.CheckpointPath)
}

// RefineRounds runs successive refinement rounds, re-anchoring the trust
// region at each round's best solution — the simplest instance of the
// paper's future-work direction of extending Steiner refinement beyond a
// single pre-routing pass. Later rounds can escape the first round's
// movement bound while each individual step stays within the region where
// the evaluator is locally valid.
func (r *Refiner) RefineRounds(rounds int) (*Result, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("core: rounds %d < 1", rounds)
	}
	start := r.Prep.Forest
	var agg *Result
	for k := 0; k < rounds; k++ {
		ckpt := r.Opt.CheckpointPath
		if ckpt != "" {
			ckpt = fmt.Sprintf("%s.r%d", ckpt, k)
		}
		res, err := r.refineFrom(start, ckpt)
		if err != nil {
			return nil, err
		}
		if agg == nil {
			agg = res
		} else {
			agg.History = append(agg.History, res.History...)
			agg.Iterations += res.Iterations
			agg.RuntimeSec += res.RuntimeSec
			agg.BestWNS = res.BestWNS
			agg.BestTNS = res.BestTNS
			agg.ConvergedByRatio = res.ConvergedByRatio
			agg.Forest = res.Forest
			agg.Degraded = agg.Degraded || res.Degraded
			agg.Recoveries += res.Recoveries
			agg.Cutoff = res.Cutoff
		}
		start = res.Forest
		// A spent budget stops the round sequence too: later rounds would
		// cut off immediately and pollute the aggregate history.
		if res.Cutoff != "" {
			break
		}
	}
	return agg, nil
}

// refineFrom runs Algorithm 1 anchored at the given starting forest,
// checkpointing loop state to ckptPath ("" = no checkpoints) and — when
// Options.Resume is set — continuing from a valid checkpoint found there.
func (r *Refiner) refineFrom(startForest *rsmt.Forest, ckptPath string) (*Result, error) {
	t0 := time.Now()
	span := r.sink().Start("core.refine")
	defer span.End()
	opt := r.Opt
	opt.Budget.Start()
	nVars := r.Batch.NSteiner
	mX := make([]float64, nVars)
	vX := make([]float64, nVars)
	mY := make([]float64, nVars)
	vY := make([]float64, nVars)
	// Trust-region anchors: the round's starting positions. The index is
	// shared by every forest in the loop (clones preserve topology).
	x0, y0, idx := startForest.SteinerPositions()

	every := opt.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	var st *refineState
	if opt.Resume && ckptPath != "" {
		var err error
		st, err = r.readState(ckptPath, nVars)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{}
	var cur, best *rsmt.Forest
	var theta, lw, lt float64
	startIter := 0
	if st != nil {
		// Resume: the loop state is exactly what the interrupted run
		// carried at iteration st.Iter, so continuing is byte-identical
		// to never having been interrupted.
		var err error
		if cur, err = r.forestAt(startForest, st.CurX, st.CurY); err != nil {
			return nil, err
		}
		if best, err = r.forestAt(startForest, st.BestX, st.BestY); err != nil {
			return nil, err
		}
		copy(mX, st.MX)
		copy(vX, st.VX)
		copy(mY, st.MY)
		copy(vY, st.VY)
		theta, lw, lt = st.Theta, st.LW, st.LT
		startIter = st.Iter
		res.InitWNS, res.InitTNS = st.InitWNS, st.InitTNS
		res.BestWNS, res.BestTNS = st.BestWNS, st.BestTNS
		res.History = st.History
		res.Iterations = st.Iter
		res.Recoveries = st.Recoveries
		res.ConvergedByRatio = st.Converged
		r.sink().Add("core.resumes", 1)
		r.sink().Event("core.resume", obs.KV{K: "iter", V: st.Iter}, obs.KV{K: "path", V: ckptPath})
	} else {
		cur = startForest.Clone()
		initWNS, initTNS, err := r.evalMetrics(cur)
		if err != nil {
			return nil, err
		}
		res.InitWNS, res.InitTNS = initWNS, initTNS
		res.BestWNS, res.BestTNS = initWNS, initTNS
		theta = opt.FixedTheta
		if theta <= 0 {
			theta, err = r.adaptiveTheta(cur)
			if err != nil {
				return nil, err
			}
		}
		lw, lt = opt.LambdaW, opt.LambdaT
		best = cur.Clone()
	}
	initWNS, initTNS := res.InitWNS, res.InitTNS
	recoveries := res.Recoveries

	// Hold-guard baseline: the round's starting hold-violation count at
	// the fastest corner. Derived from startForest (not the resumed
	// best) so interrupted and uninterrupted runs see the same veto.
	baseHold := 0
	if opt.HoldGuard {
		var err error
		if baseHold, err = r.holdVios(startForest); err != nil {
			return nil, err
		}
	}

	// Persistent per-loop storage, reused across iterations instead of
	// cloned: the candidate forest (SetSteinerPositions overwrites every
	// Steiner coordinate, and pin nodes are identical across clones), the
	// coordinate staging buffers the SO step mutates, and the staged
	// per-coordinate displacement.
	cand := startForest.Clone()
	xsBuf := make([]float64, nVars)
	ysBuf := make([]float64, nVars)
	dxBuf := make([]float64, nVars)
	dyBuf := make([]float64, nVars)
	// Candidate staging: lane-major candidate coordinate blocks and
	// per-lane metrics.
	K := opt.CandidateLanes
	if K < 1 {
		K = 1
	}
	laneXs := make([]float64, K*nVars)
	laneYs := make([]float64, K*nVars)
	laneWNS := make([]float64, K)
	laneTNS := make([]float64, K)

	for t := startIter; t < opt.N && !res.ConvergedByRatio; t++ {
		iterM0 := r.sink().Mallocs()
		iterT0 := time.Now()
		if reason, over := opt.Budget.Exceeded(t); over {
			res.Cutoff = reason
			r.sink().Add("core.budget_cutoffs", 1)
			r.sink().Event("core.cutoff", obs.KV{K: "iter", V: t}, obs.KV{K: "reason", V: reason})
			break
		}
		opt.Fault.Stall("core.stall")
		gx, gy, penalty, err := r.gradients(cur, lw, lt)
		if err != nil {
			return nil, err
		}
		if opt.Fault.Fire("core.nan") && len(gx) > 0 {
			gx[0] = math.NaN()
		}
		if !finite(penalty) || !finite(theta) || !finiteAll(gx) || !finiteAll(gy) {
			// Numerical recovery: discard the poisoned step, roll back to
			// the tracked best solution, shrink the stepsize and retry.
			// The best forest is only ever assigned finite, accepted
			// candidates, so rollback is always safe.
			recoveries++
			res.Recoveries = recoveries
			r.sink().Add("core.recoveries", 1)
			r.sink().Event("core.recover",
				obs.KV{K: "iter", V: t},
				obs.KV{K: "recoveries", V: recoveries},
				obs.KV{K: "theta", V: theta})
			if recoveries > opt.MaxRecoveries {
				res.Degraded = true
				break
			}
			if err := cur.CopyPositionsFrom(best); err != nil {
				return nil, err
			}
			if !finite(theta) {
				theta = float64(r.Prep.Config.GCellSize)
			} else {
				theta /= 2
			}
			t--
			continue
		}
		// The SO update is staged as a per-coordinate displacement first
		// (moments update, MaxMove clamp), then applied at K geometric
		// scales — lane 0 is the full step, the only one when K = 1.
		// stepSq/clamped observe the update for telemetry only; they are
		// derived from the same deterministic arithmetic, never fed back.
		var stepSq float64
		var clamped int
		step := func(g, mAcc, vAcc, disp []float64) {
			for i := range disp {
				var d float64
				if opt.RawGradient {
					d = theta * g[i]
				} else {
					mAcc[i] = opt.Beta1*mAcc[i] + (1-opt.Beta1)*g[i]
					vAcc[i] = opt.Beta2*vAcc[i] + (1-opt.Beta2)*g[i]*g[i]
					d = theta * mAcc[i] / (math.Sqrt(vAcc[i]) + opt.Eps)
				}
				if opt.MaxMoveDBU > 0 {
					if d > opt.MaxMoveDBU {
						d = opt.MaxMoveDBU
						clamped++
					}
					if d < -opt.MaxMoveDBU {
						d = -opt.MaxMoveDBU
						clamped++
					}
				}
				disp[i] = d
				stepSq += d * d
			}
		}
		step(gx, mX, vX, dxBuf)
		step(gy, mY, vY, dyBuf)
		cur.CopySteinerPositionsInto(xsBuf, ysBuf)

		// cand doubles as the staging scratch: the chosen lane's
		// positions then overwrite every Steiner coordinate it holds.
		if err := r.stageCandidates(K, xsBuf, ysBuf, dxBuf, dyBuf, x0, y0, idx, cand, laneXs, laneYs, &clamped); err != nil {
			return nil, err
		}
		if err := r.evalCandidates(K, laneXs, laneYs, laneWNS, laneTNS); err != nil {
			return nil, err
		}
		lane := chooseLane(laneWNS, laneTNS)
		wns, tns := laneWNS[lane], laneTNS[lane]
		if err := cand.SetSteinerPositions(laneXs[lane*nVars:(lane+1)*nVars], laneYs[lane*nVars:(lane+1)*nVars], idx, r.Prep.Design.Die); err != nil {
			return nil, err
		}
		accepted := opt.AlwaysAccept || wns > res.BestWNS || tns > res.BestTNS
		if accepted && opt.HoldGuard && !opt.AlwaysAccept {
			// Setup/hold co-optimization: a setup win that mints new hold
			// violations at the fast corner is vetoed (Alg. 1's accept
			// becomes lexicographic over the matrix AND hold-safe).
			hv, herr := r.holdVios(cand)
			if herr != nil {
				return nil, herr
			}
			if hv > baseHold {
				accepted = false
				r.sink().Add("core.hold_rejects", 1)
			}
		}
		if accepted {
			if wns > res.BestWNS || tns > res.BestTNS {
				res.BestWNS = wns
				res.BestTNS = tns
				if err := best.CopyPositionsFrom(cand); err != nil {
					return nil, err
				}
			}
			// S_T^(t+1) ← candidate: swap the forests so the old cur
			// becomes next iteration's scratch candidate.
			cur, cand = cand, cur
		}
		// On rejection cur is kept: S_T^(t+1) ← S_T^(t) (Alg. 1 line 13).
		res.History = append(res.History, IterRecord{WNS: wns, TNS: tns, Accepted: accepted, Theta: theta, Lane: lane})
		res.Iterations = t + 1
		r.sink().Add("core.iterations", 1)
		var iterAllocs int64
		if r.sink().Enabled() {
			// Per-iteration allocation count — the quantity the workspace
			// path drives toward zero — and wall time, both into the
			// bucketed histograms so /metrics can serve tail latencies.
			// Telemetry only.
			iterAllocs = int64(r.sink().Mallocs() - iterM0)
			r.sink().Observe("core.iter_allocs", float64(iterAllocs))
			r.sink().Observe("core.iter_ms", float64(time.Since(iterT0))/float64(time.Millisecond))
		}
		r.sink().Event("core.iter",
			obs.KV{K: "iter", V: t + 1},
			obs.KV{K: "penalty", V: penalty},
			obs.KV{K: "wns", V: wns}, obs.KV{K: "tns", V: tns},
			obs.KV{K: "theta", V: theta},
			obs.KV{K: "step_norm", V: math.Sqrt(stepSq)},
			obs.KV{K: "clamped", V: clamped},
			obs.KV{K: "lane", V: lane},
			obs.KV{K: "accepted", V: accepted},
			obs.KV{K: "allocs", V: iterAllocs},
			obs.KV{K: "best_wns", V: res.BestWNS}, obs.KV{K: "best_tns", V: res.BestTNS})

		if t+1 >= opt.EscalateAfter {
			lw *= 1 + opt.EscalateRate
			lt *= 1 + opt.EscalateRate
		}

		if ratioImproved(initWNS, res.BestWNS, opt.Mu) || ratioImproved(initTNS, res.BestTNS, opt.Mu) {
			res.ConvergedByRatio = true
		}
		if ckptPath != "" && ((t+1)%every == 0 || res.ConvergedByRatio) {
			cx, cy, _ := cur.SteinerPositions()
			bx, by, _ := best.SteinerPositions()
			snap := &refineState{
				Iter: t + 1, Theta: theta, LW: lw, LT: lt,
				CurX: cx, CurY: cy, BestX: bx, BestY: by,
				MX: mX, VX: vX, MY: mY, VY: vY,
				InitWNS: initWNS, InitTNS: initTNS,
				BestWNS: res.BestWNS, BestTNS: res.BestTNS,
				History: res.History, Recoveries: recoveries,
				Converged: res.ConvergedByRatio,
			}
			if err := r.writeState(ckptPath, snap); err != nil {
				return nil, err
			}
		}
	}

	res.Forest = best
	res.RuntimeSec = time.Since(t0).Seconds()
	ws := r.session().ws.Stats()
	r.sink().Event("core.done",
		obs.KV{K: "iterations", V: res.Iterations},
		obs.KV{K: "converged", V: res.ConvergedByRatio},
		obs.KV{K: "init_wns", V: res.InitWNS}, obs.KV{K: "best_wns", V: res.BestWNS},
		obs.KV{K: "init_tns", V: res.InitTNS}, obs.KV{K: "best_tns", V: res.BestTNS},
		obs.KV{K: "ws_grabs", V: ws.Grabs},
		obs.KV{K: "ws_hits", V: ws.Hits})
	return res, nil
}

// stageCandidates fills lane-major candidate coordinate blocks: lane k
// moves the base positions by the staged SO displacement scaled by 2^-k
// (lane 0 = the full step), then applies the trust-region clamp and — by
// routing the positions through the scratch forest — the die clamp, so
// each lane block holds exactly the coordinates the evaluator will see.
// The blocks double as SetSteinerPositions inputs because the batch's
// variable order is the forest's Steiner order (FillSteinerCoords
// verifies this on every call).
func (r *Refiner) stageCandidates(lanes int, baseX, baseY, dx, dy, x0, y0 []float64, idx []rsmt.SteinerRef, scratch *rsmt.Forest, laneXs, laneYs []float64, clamped *int) error {
	n := len(baseX)
	scale := 1.0
	for k := 0; k < lanes; k++ {
		lx := laneXs[k*n : (k+1)*n]
		ly := laneYs[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			lx[i] = baseX[i] - scale*dx[i]
			ly[i] = baseY[i] - scale*dy[i]
		}
		if rr := r.Opt.TrustRadiusDBU; rr > 0 {
			for i := 0; i < n; i++ {
				cx := clampTo(lx[i], x0[i]-rr, x0[i]+rr)
				cy := clampTo(ly[i], y0[i]-rr, y0[i]+rr)
				if cx != lx[i] {
					*clamped++
				}
				if cy != ly[i] {
					*clamped++
				}
				lx[i], ly[i] = cx, cy
			}
		}
		if err := scratch.SetSteinerPositions(lx, ly, idx, r.Prep.Design.Die); err != nil {
			return err
		}
		if err := r.Batch.FillSteinerCoords(scratch, lx, ly); err != nil {
			return err
		}
		scale *= 0.5
	}
	return nil
}

// evalCandidates produces the hard metrics of the staged candidates with
// one fused ForwardBatch over all lanes.
func (r *Refiner) evalCandidates(lanes int, laneXs, laneYs, wns, tns []float64) error {
	r.sink().Add("core.evals", int64(lanes))
	t0 := time.Now()
	bp, err := r.session().forwardBatch(lanes, laneXs, laneYs)
	if err != nil {
		return err
	}
	// Telemetry: lanes evaluated per batched pass and the amortized
	// per-candidate forward cost (side channel, never fed back).
	r.sink().Add("core.batch_lanes", int64(lanes))
	r.sink().Observe("gnn.batch_amortized_ns", float64(time.Since(t0).Nanoseconds())/float64(lanes))
	for k := 0; k < lanes; k++ {
		wns[k], tns[k] = r.metricsFromSlack(bp.LaneSlack(k))
	}
	return nil
}

// chooseLane picks the candidate Algorithm 1 tests against the best
// solution: maximum WNS, ties broken by maximum TNS, remaining ties by
// the lowest lane (the largest step). Non-finite metrics never displace
// finite ones, so a poisoned lane cannot win the selection.
func chooseLane(wns, tns []float64) int {
	best := 0
	for k := 1; k < len(wns); k++ {
		if laneBetter(wns[k], tns[k], wns[best], tns[best]) {
			best = k
		}
	}
	return best
}

func laneBetter(w1, t1, w0, t0 float64) bool {
	f1 := finite(w1) && finite(t1)
	f0 := finite(w0) && finite(t0)
	if f1 != f0 {
		return f1
	}
	if !f1 {
		return false
	}
	if w1 != w0 {
		return w1 > w0
	}
	return t1 > t0
}

func clampTo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ratioImproved implements Algorithm 1 line 19: (init − best)/init > μ.
// With negative metrics this is the fractional improvement toward zero;
// non-negative, zero or non-finite initial metrics cannot trigger it (a
// NaN or ±Inf metric must never fake convergence), and a non-finite best
// metric never counts as an improvement.
func ratioImproved(init, best, mu float64) bool {
	if !finite(init) || !finite(best) || init >= 0 {
		return false
	}
	return (init-best)/init > mu
}
