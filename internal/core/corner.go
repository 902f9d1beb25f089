// Multi-corner sign-off for the refinement loop: the matrix penalty
// P = Σ_c λ_c·P_γ(slack_c) over corner-derated slack vectors, the
// matrix accept metrics (worst-corner WNS, corner-summed TNS), and the
// hold-guard veto that rejects setup moves creating hold violations.
//
// The evaluator predicts typical-corner endpoint slacks; each corner's
// slack vector is the affine rescaling sta.Corner.CornerSlack derives
// from the uniform derating (setup terms cancel exactly, slew coupling
// is first-order), so the whole matrix costs two extra tensor ops per
// corner and stays differentiable end to end. With Options.Corners
// empty every path below collapses to the single-corner algorithm
// byte-for-byte.
package core

import (
	"fmt"
	"math"

	"tsteiner/internal/rc"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
	"tsteiner/internal/tensor"
)

// CornerTerm weighs one corner's smoothed penalty in the matrix
// penalty P = Σ_c λ_c·P_γ(slack_c).
type CornerTerm struct {
	Corner sta.Corner
	Lambda float64
}

// DefaultCornerTerms is the standard three-corner matrix: the slow
// (setup-critical) and typical corners at full weight, the fast corner
// at half weight — it mostly matters through the hold guard, which
// checks it exactly rather than through the smoothed penalty.
func DefaultCornerTerms() []CornerTerm {
	return []CornerTerm{
		{Corner: sta.FastCorner(), Lambda: 0.5},
		{Corner: sta.TypicalCorner(), Lambda: 1.0},
		{Corner: sta.SlowCorner(), Lambda: 1.0},
	}
}

// CornerTermsFor wraps plain corners as equally-weighted matrix terms
// — the cmd/serve layers' bridge from a -corners flag to refiner
// options.
func CornerTermsFor(corners []sta.Corner) []CornerTerm {
	out := make([]CornerTerm, len(corners))
	for i, c := range corners {
		out[i] = CornerTerm{Corner: c, Lambda: 1.0}
	}
	return out
}

// cornersOf lists the terms' corners in order.
func cornersOf(terms []CornerTerm) []sta.Corner {
	out := make([]sta.Corner, len(terms))
	for i, ct := range terms {
		out[i] = ct.Corner
	}
	return out
}

// validateCornerTerms rejects terms that would corrupt the penalty:
// invalid corners, duplicate names, non-finite or negative weights.
func validateCornerTerms(terms []CornerTerm) error {
	if err := sta.ValidateCorners(cornersOf(terms)); err != nil {
		return err
	}
	for _, ct := range terms {
		if math.IsNaN(ct.Lambda) || math.IsInf(ct.Lambda, 0) || ct.Lambda < 0 {
			return fmt.Errorf("core: corner %q weight %v not finite and non-negative", ct.Corner.Name, ct.Lambda)
		}
	}
	return nil
}

// penaltyMatrixOn dispatches the penalty construction: single-corner
// runs build exactly the original P_γ; multi-corner runs build
// Σ_c λ_c·P_γ(slack_c) with each corner's slack derived on-tape by the
// affine transform (Scale + AddScalar are lane-transparent, so the
// batched candidate path keeps its per-lane bit-identity). The
// "core.corner.nan" fault site poisons the first corner's derated
// slack — and only that corner's — for the fault-matrix tests.
func (r *Refiner) penaltyMatrixOn(tp *tensor.Tape, slack *tensor.Tensor, lw, lt float64) (*tensor.Tensor, error) {
	if len(r.Opt.Corners) == 0 {
		return r.penaltyOn(tp, slack, lw, lt)
	}
	clockPeriod := r.Prep.Design.ClockPeriod
	var total *tensor.Tensor
	for ci, ct := range r.Opt.Corners {
		cs := slack
		var err error
		if !ct.Corner.IsTypical() {
			if cs, err = tp.Scale(slack, ct.Corner.DelayScale); err != nil {
				return nil, err
			}
			if cs, err = tp.AddScalar(cs, (ct.Corner.ClockScale-ct.Corner.DelayScale)*clockPeriod); err != nil {
				return nil, err
			}
		}
		if ci == 0 && r.Opt.Fault.Fire("core.corner.nan") {
			if cs, err = tp.AddScalar(cs, math.NaN()); err != nil {
				return nil, err
			}
		}
		p, err := r.penaltyOn(tp, cs, lw, lt)
		if err != nil {
			return nil, err
		}
		term, err := tp.Scale(p, ct.Lambda)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = term
		} else if total, err = tp.Add(total, term); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// metricsFromSlack produces the hard metrics Algorithm 1's accept rule
// compares: plain (WNS, TNS) single-corner, or the matrix pair —
// worst-corner WNS and corner-summed TNS — when Corners are set, so
// the lexicographic accept optimizes the whole matrix at once.
func (r *Refiner) metricsFromSlack(slack []float64) (wns, tns float64) {
	if len(r.Opt.Corners) == 0 {
		return hardMetrics(slack)
	}
	return matrixMetrics(slack, r.Opt.Corners, r.Prep.Design.ClockPeriod)
}

// matrixMetrics evaluates the matrix accept pair from a typical-corner
// slack vector via the per-corner affine transform.
func matrixMetrics(slack []float64, terms []CornerTerm, clockPeriod float64) (wns, tns float64) {
	wns = math.Inf(1)
	for _, ct := range terms {
		cw := math.Inf(1)
		for _, s := range slack {
			sc := ct.Corner.CornerSlack(s, clockPeriod)
			if sc < cw {
				cw = sc
			}
			if sc < 0 {
				tns += sc
			}
		}
		if len(slack) == 0 {
			cw = 0
		}
		if cw < wns {
			wns = cw
		}
	}
	if len(terms) == 0 {
		wns = 0
	}
	return wns, tns
}

// holdCorner is the corner the hold guard checks: hold violations are
// worst where delays are shortest, so it picks the minimum-DelayScale
// configured corner (first on ties), or the fast preset when refining
// single-corner.
func (r *Refiner) holdCorner() sta.Corner {
	if len(r.Opt.Corners) == 0 {
		return sta.FastCorner()
	}
	return r.Opt.Corners[sta.HoldCorner(cornersOf(r.Opt.Corners))].Corner
}

// holdVios counts hold violations of a forest under the hold corner
// using tree-geometry (pre-routing) parasitics — the same cheap
// extraction the evaluator's training labels come from, so the guard
// costs one STA, not a routing pass. Positions are rounded the way
// flow.Signoff rounds them before extraction.
func (r *Refiner) holdVios(f *rsmt.Forest) (int, error) {
	rounded := f.Clone()
	rounded.RoundPositions()
	rcs, err := rc.ExtractFromTrees(r.Prep.Design, rounded, r.Prep.Lib)
	if err != nil {
		return 0, err
	}
	T, err := sta.RunCorner(r.Prep.Design, rcs, r.holdCorner())
	if err != nil {
		return 0, err
	}
	return T.HoldVios, nil
}
