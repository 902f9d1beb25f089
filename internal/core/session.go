package core

import (
	"tsteiner/internal/gnn"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/tensor"
)

// evalSession is the refiner's workspace-backed evaluation state: one
// tensor arena reused across iterations plus a memo of the last fused
// forward pass, keyed by the exact lane-major Steiner coordinates of its
// lanes. Every forward the session runs is a ForwardBatch — K lanes for a
// multi-candidate iteration, one lane for everything else — so a single
// memo covers both. Algorithm 1 evaluates a candidate and, when it is
// accepted, asks for gradients at the very same positions next
// iteration; the memo turns that second forward into a lane lookup.
// Forward passes are deterministic functions of the coordinates, and
// lane k of a batched pass is bit-identical to a forward on candidate k
// alone, so serving a request from a memoized lane is byte-identical to
// recomputing it.
//
// The memo may be consumed by at most one Backward (gradients accumulate
// into the cached leaves), and appending penalty ops dirties the tape, so
// both gradient and penalty evaluations invalidate it. A session belongs
// to one refiner and, like the model (see Model.Clone), must not be used
// from two goroutines: parallel refinement runs each own a session.
type evalSession struct {
	r  *Refiner
	ws *tensor.Workspace

	// curX/curY stage a forest's coordinates for the memo lookup.
	curX, curY []float64
	// Memoized forward pass (valid only until the next workspace reset;
	// bp == nil means none): the tape, its prediction and the lane-major
	// coordinates it was evaluated at.
	memoX, memoY []float64
	tp           *tensor.Tape
	bp           *gnn.BatchPrediction
}

func newEvalSession(r *Refiner) *evalSession {
	n := r.Batch.NSteiner
	return &evalSession{
		r:    r,
		ws:   tensor.NewWorkspace(),
		curX: make([]float64, n), curY: make([]float64, n),
	}
}

// session returns the refiner's lazily-built evaluation session, or nil
// when Options.DisableWorkspace selects the allocating reference path.
func (r *Refiner) session() *evalSession {
	if r.Opt.DisableWorkspace {
		return nil
	}
	if r.sess == nil {
		r.sess = newEvalSession(r)
	}
	return r.sess
}

// invalidate drops the memoized forward pass (the workspace storage
// itself is reclaimed by the next forward's reset).
func (s *evalSession) invalidate() {
	s.tp, s.bp = nil, nil
}

func sliceEq(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// forwardBatch runs one fused K-lane forward at the staged candidate
// coordinates (lane-major), memoizing the tape so a following request at
// one lane's exact coordinates can reuse it.
func (s *evalSession) forwardBatch(lanes int, laneXs, laneYs []float64) (*gnn.BatchPrediction, error) {
	s.invalidate()
	tp := s.ws.Tape()
	bp, err := s.r.Model.ForwardBatch(tp, s.r.Batch, lanes, laneXs, laneYs, false)
	if err != nil {
		return nil, err
	}
	n := lanes * s.r.Batch.NSteiner
	if cap(s.memoX) < n {
		s.memoX = make([]float64, n)
		s.memoY = make([]float64, n)
	}
	s.memoX, s.memoY = s.memoX[:n], s.memoY[:n]
	copy(s.memoX, laneXs)
	copy(s.memoY, laneYs)
	s.tp, s.bp = tp, bp
	return bp, nil
}

// forward returns a forward pass covering f's current positions and the
// lane that holds them: a memoized lane when the coordinates are
// bit-identical to one, otherwise a fresh 1-lane forward.
func (s *evalSession) forward(f *rsmt.Forest) (*tensor.Tape, *gnn.BatchPrediction, int, error) {
	if err := s.r.Batch.FillSteinerCoords(f, s.curX, s.curY); err != nil {
		return nil, nil, 0, err
	}
	if s.bp != nil {
		n := s.r.Batch.NSteiner
		for k := 0; k < s.bp.K; k++ {
			if sliceEq(s.curX, s.memoX[k*n:(k+1)*n]) && sliceEq(s.curY, s.memoY[k*n:(k+1)*n]) {
				s.r.sink().Add("core.memo_hits", 1)
				s.r.sink().Add("core.lane_memo_hits", 1)
				return s.tp, s.bp, k, nil
			}
		}
	}
	bp, err := s.forwardBatch(1, s.curX, s.curY)
	if err != nil {
		return nil, nil, 0, err
	}
	return s.tp, bp, 0, nil
}

// gradients computes the penalty gradient at f's positions on the
// session path: the penalty is appended per-lane on the forward's slack,
// a lane slice selects f's scalar, and Backward leaves f's exact
// gradient in its lane of the coordinate leaves (the other lanes receive
// exact zeros).
func (s *evalSession) gradients(f *rsmt.Forest, lw, lt float64) (gx, gy []float64, pval float64, err error) {
	tp, bp, lane, err := s.forward(f)
	if err != nil {
		return nil, nil, 0, err
	}
	// The memo is consumed either way: penalty ops dirty the tape and
	// Backward accumulates into its leaves (and callers may escalate λ
	// between calls).
	defer s.invalidate()
	p, err := s.r.penaltyMatrixOn(tp, bp.Slack, lw, lt)
	if err != nil {
		return nil, nil, 0, err
	}
	loss, err := tp.SliceLane(p, lane)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := tp.Backward(loss); err != nil {
		return nil, nil, 0, err
	}
	// Copies: workspace storage is reclaimed on the next forward, and
	// callers (adaptiveTheta, the NaN-recovery fault site) hold and
	// mutate the slices across further gradient calls.
	gx = append([]float64(nil), bp.Xs.LaneGrad(lane)...)
	gy = append([]float64(nil), bp.Ys.LaneGrad(lane)...)
	return gx, gy, loss.Data[0], nil
}

// penalty evaluates the smoothed penalty at f's positions without
// gradients. The penalty ops dirty the memoized tape, so it is dropped.
func (s *evalSession) penalty(f *rsmt.Forest, lw, lt float64) (float64, error) {
	tp, bp, lane, err := s.forward(f)
	if err != nil {
		return 0, err
	}
	defer s.invalidate()
	p, err := s.r.penaltyMatrixOn(tp, bp.Slack, lw, lt)
	if err != nil {
		return 0, err
	}
	return p.LaneData(lane)[0], nil
}
