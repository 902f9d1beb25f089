package bench

// Pure gate checks: the comparisons behind TestBenchAllocGate and
// TestBatchedBaselineMargin, factored out of the test asserts so the
// failure branches (regressed allocs/op, missing or stale baseline
// records) are typed errors a caller — or a test — can discriminate
// with errors.Is instead of reading t.Errorf text.

import (
	"errors"
	"fmt"
)

// Gate failure kinds.
var (
	// ErrMissingRecord: the committed baseline lacks the benchmark
	// record the gate compares against.
	ErrMissingRecord = errors.New("bench: baseline record missing")
	// ErrAllocRegression: a measured allocs/op exceeds baseline +10%.
	ErrAllocRegression = errors.New("bench: allocs/op regression")
	// ErrBatchMargin: the fused batched forward lost its per-candidate
	// speed margin over the sequential reference.
	ErrBatchMargin = errors.New("bench: batched margin lost")
	// ErrStaleBaseline: the baseline's batched records pin a lane count
	// other than the harness's BatchLanes — re-record.
	ErrStaleBaseline = errors.New("bench: baseline lane pin mismatch")
)

// allocLimit is the gate's regression budget: baseline +10%.
func allocLimit(baseline int64) int64 { return baseline + baseline/10 }

// CheckAllocGate holds a freshly measured refine-loop record to the
// committed baseline: allocs/op within +10% of the recorded refine_loop.
func (b *Baseline) CheckAllocGate(measured Record) error {
	rec, ok := b.Benchmarks["refine_loop"]
	if !ok {
		return fmt.Errorf("%w: refine_loop", ErrMissingRecord)
	}
	if limit := allocLimit(rec.AllocsOp); measured.AllocsOp > limit {
		return fmt.Errorf("%w: refine loop %d allocs/op > %d (baseline %d +10%%)",
			ErrAllocRegression, measured.AllocsOp, limit, rec.AllocsOp)
	}
	return nil
}

// CheckBatchedAllocGate holds a per-candidate batched refine record to
// the recorded refine_batched +10%.
func (b *Baseline) CheckBatchedAllocGate(batched Record) error {
	rec, ok := b.Benchmarks["refine_batched"]
	if !ok {
		return fmt.Errorf("%w: refine_batched", ErrMissingRecord)
	}
	if limit := allocLimit(rec.AllocsOp); batched.AllocsOp > limit {
		return fmt.Errorf("%w: batched refine loop %d allocs/op per candidate > %d (baseline %d +10%%)",
			ErrAllocRegression, batched.AllocsOp, limit, rec.AllocsOp)
	}
	return nil
}

// CheckBatchedMargin holds the fused per-candidate forward cost to at
// least floor× cheaper than the sequential reference.
func CheckBatchedMargin(fused, seq Record, floor float64) error {
	if fused.NsOp*floor > seq.NsOp {
		return fmt.Errorf("%w: fused %.0f ns/candidate vs sequential %.0f (< %.1fx floor)",
			ErrBatchMargin, fused.NsOp, seq.NsOp, floor)
	}
	return nil
}

// CheckBaselineMargin validates the committed batched records
// themselves: both present, pinned to BatchLanes, and carrying the
// >=1.5x per-candidate margin the recorder enforces.
func (b *Baseline) CheckBaselineMargin() error {
	fused, okF := b.Benchmarks["gnn_forward_batched"]
	seq, okS := b.Benchmarks["gnn_forward_sequential"]
	if !okF || !okS {
		return fmt.Errorf("%w: gnn_forward_batched/gnn_forward_sequential", ErrMissingRecord)
	}
	if fused.Lanes != BatchLanes || seq.Lanes != BatchLanes {
		return fmt.Errorf("%w: records pin %d/%d lanes, harness pins %d",
			ErrStaleBaseline, fused.Lanes, seq.Lanes, BatchLanes)
	}
	return CheckBatchedMargin(fused, seq, 1.5)
}
