package bench

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"testing"

	"tsteiner/internal/tensor"
)

var (
	benchGate = flag.Bool("benchgate", false,
		"run the allocs/op regression gate against the committed BENCH_refine.json")
	benchUpdate = flag.Bool("benchupdate", false,
		"re-measure the pinned workload and rewrite BENCH_refine.json")
)

func newWorkload(tb testing.TB, workers int) *Workload {
	tb.Helper()
	w, err := NewWorkload(workers)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkRefineLoop measures the pooled (workspace + forward-memo)
// refine loop end to end — the paper's Algorithm 1 on the pinned workload.
func BenchmarkRefineLoop(b *testing.B) {
	w := newWorkload(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunRefine(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGNNForward measures one evaluator forward pass on a reused
// workspace tape — the inner kernel of every refine iteration.
func BenchmarkGNNForward(b *testing.B) {
	w := newWorkload(b, 1)
	ws := tensor.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := ws.Tape()
		xs, ys, err := w.Batch.SteinerLeaves(tp, w.Prepared.Forest)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Model.Forward(tp, w.Batch, xs, ys, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGNNForwardBatched measures one fused BatchLanes-candidate
// forward pass on a reused workspace tape — the batched inner kernel of
// the multi-candidate refine iteration. Divide by BatchLanes for the
// per-candidate cost (measureLanes and the baseline recorder do).
func BenchmarkGNNForwardBatched(b *testing.B) {
	w := newWorkload(b, 1)
	cx, cy, err := w.CandidateCoords(BatchLanes)
	if err != nil {
		b.Fatal(err)
	}
	ws := tensor.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := ws.Tape()
		if _, err := w.Model.ForwardBatch(tp, w.Batch, BatchLanes, cx, cy, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGNNForwardSequentialLanes is the before side of the batching
// comparison: the same BatchLanes candidates evaluated by K sequential
// forwards, one fresh tape per candidate.
func BenchmarkGNNForwardSequentialLanes(b *testing.B) {
	w := newWorkload(b, 1)
	cx, cy, err := w.CandidateCoords(BatchLanes)
	if err != nil {
		b.Fatal(err)
	}
	n := w.Batch.NSteiner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < BatchLanes; k++ {
			tp := tensor.NewTape()
			xs, ys, err := w.Batch.LeavesFromCoords(tp, cx[k*n:(k+1)*n], cy[k*n:(k+1)*n])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := w.Model.Forward(tp, w.Batch, xs, ys, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRefineBatched measures the multi-candidate refine loop:
// BatchLanes line-search candidates per iteration, one fused forward
// each iteration plus the lane-granular gradient memo.
func BenchmarkRefineBatched(b *testing.B) {
	w := newWorkload(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunRefineBatched(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTA measures one full sign-off STA pass over pre-extracted
// parasitics of the pinned workload.
func BenchmarkSTA(b *testing.B) {
	w := newWorkload(b, 1)
	st, err := w.PrepareSTA()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchReplayByteIdentical is the replay gate: the pinned workload's
// refine outcome — metrics, iteration count and the FNV digest of the
// final Steiner coordinates — must be identical across worker counts and
// equal to the committed baseline. Runs in short mode so verify.sh
// always exercises it.
func TestBenchReplayByteIdentical(t *testing.T) {
	outcomes := map[int]*RefineOutcome{}
	for _, w := range []int{1, 4} {
		out, err := newWorkload(t, w).RunRefine()
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		outcomes[w] = out
	}
	want := outcomes[1]
	if got := outcomes[4]; *got != *want {
		t.Errorf("w=4 outcome %+v != w=1 %+v", *got, *want)
	}

	path, err := BaselinePath()
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if os.IsNotExist(err) {
		t.Skipf("no committed baseline at %s; record one with -benchupdate", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if base.Workload != WorkloadName || base.Scale != WorkloadScale ||
		base.ModelSeed != ModelSeed || base.Iters != RefineIters {
		t.Fatalf("baseline pins %s@%v seed=%d iters=%d, harness pins %s@%v seed=%d iters=%d: re-record",
			base.Workload, base.Scale, base.ModelSeed, base.Iters,
			WorkloadName, WorkloadScale, ModelSeed, RefineIters)
	}
	if *want != base.Metrics {
		t.Errorf("refine outcome %+v != recorded baseline %+v", *want, base.Metrics)
	}
}

// TestBatchReplayByteIdentical is the batched replay gate: the
// multi-candidate refine outcome must be identical across worker counts
// and equal to the committed baseline's metrics_batched.
func TestBatchReplayByteIdentical(t *testing.T) {
	outcomes := map[int]*RefineOutcome{}
	for _, w := range []int{1, 4} {
		out, err := newWorkload(t, w).RunRefineBatched()
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		outcomes[w] = out
	}
	want := outcomes[1]
	if got := outcomes[4]; *got != *want {
		t.Errorf("w=4 batched outcome %+v != w=1 %+v", *got, *want)
	}

	path, err := BaselinePath()
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if os.IsNotExist(err) {
		t.Skipf("no committed baseline at %s; record one with -benchupdate", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if base.MetricsBatched == (RefineOutcome{}) {
		t.Skipf("baseline %s predates batched metrics; re-record with -benchupdate", path)
	}
	if *want != base.MetricsBatched {
		t.Errorf("batched refine outcome %+v != recorded baseline %+v", *want, base.MetricsBatched)
	}
}

// measure runs fn under testing.Benchmark and returns its cost record.
func measure(fn func(b *testing.B)) Record {
	r := testing.Benchmark(fn)
	return Record{
		NsOp:     float64(r.NsPerOp()),
		BytesOp:  r.AllocedBytesPerOp(),
		AllocsOp: r.AllocsPerOp(),
	}
}

// measureLanes runs a batched benchmark and normalizes every cost to per
// candidate — total divided by lanes, with the lane count recorded — so
// the entry stays comparable to its unbatched counterpart and across
// batch sizes.
func measureLanes(fn func(b *testing.B), lanes int) Record {
	r := measure(fn)
	return Record{
		NsOp:     r.NsOp / float64(lanes),
		BytesOp:  r.BytesOp / int64(lanes),
		AllocsOp: r.AllocsOp / int64(lanes),
		Lanes:    lanes,
	}
}

// TestBenchAllocGate is the allocation-regression gate verify.sh runs
// with -benchgate. It re-measures the refine loop and the batched refine
// loop and fails when either one's allocs/op regress more than 10% over
// the committed baseline.
func TestBenchAllocGate(t *testing.T) {
	if !*benchGate {
		t.Skip("allocation gate disabled; enable with -benchgate")
	}
	path, err := BaselinePath()
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("gate needs a committed baseline: %v", err)
	}
	if _, ok := base.Benchmarks["refine_loop"]; !ok {
		t.Fatalf("baseline %s has no refine_loop record", path)
	}
	loop := measure(BenchmarkRefineLoop)
	t.Logf("refine_loop: %+v (baseline %+v)", loop, base.Benchmarks["refine_loop"])
	if err := base.CheckAllocGate(loop); err != nil {
		t.Error(err)
	}

	if brec, ok := base.Benchmarks["refine_batched"]; ok {
		batched := measureLanes(BenchmarkRefineBatched, BatchLanes)
		t.Logf("refine_batched (per candidate): %+v (baseline %+v)", batched, brec)
		if err := base.CheckBatchedAllocGate(batched); err != nil {
			t.Error(err)
		}
	}

	// Live regression canary for the batching speedup. The committed
	// baseline carries the >=1.5x per-candidate claim (recorded under
	// quiet conditions and re-checked statically by
	// TestBatchedBaselineMargin); here the sequential side's GC timing
	// swings by ~15% run to run, so the live floor is 1.3x — low enough
	// not to flake, high enough to catch the fused path genuinely losing
	// its advantage.
	fused := measureLanes(BenchmarkGNNForwardBatched, BatchLanes)
	seq := measureLanes(BenchmarkGNNForwardSequentialLanes, BatchLanes)
	t.Logf("gnn forward per candidate: fused %.0f ns vs sequential %.0f ns (%.2fx)",
		fused.NsOp, seq.NsOp, seq.NsOp/fused.NsOp)
	if err := CheckBatchedMargin(fused, seq, 1.3); err != nil {
		t.Error(err)
	}
}

// TestBatchedBaselineMargin pins the batching acceptance claim against
// the committed baseline: the recorded fused per-candidate forward must
// be at least 1.5x cheaper than the recorded sequential reference
// (K fresh-tape forwards over the same candidates). Deterministic — it
// reads BENCH_refine.json, it does not re-measure — so it runs in every
// `go test ./...`; the recorder enforces the same margin at record time.
func TestBatchedBaselineMargin(t *testing.T) {
	path, err := BaselinePath()
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(path)
	if os.IsNotExist(err) {
		t.Skipf("no committed baseline at %s; record one with -benchupdate", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	switch err := base.CheckBaselineMargin(); {
	case errors.Is(err, ErrMissingRecord):
		t.Skipf("baseline %s predates batched records; re-record with -benchupdate", path)
	case errors.Is(err, ErrStaleBaseline):
		t.Fatalf("%v: re-record", err)
	case err != nil:
		t.Error(err)
	}
}

// TestBenchUpdateBaseline re-measures every pinned benchmark and rewrites
// BENCH_refine.json. Run it after intentional performance changes:
// go test ./internal/bench -run TestBenchUpdateBaseline -benchupdate
func TestBenchUpdateBaseline(t *testing.T) {
	if !*benchUpdate {
		t.Skip("baseline recorder disabled; enable with -benchupdate")
	}
	w := newWorkload(t, 1)
	out, err := w.RunRefine()
	if err != nil {
		t.Fatal(err)
	}
	outBatched, err := w.RunRefineBatched()
	if err != nil {
		t.Fatal(err)
	}
	fused := measureLanes(BenchmarkGNNForwardBatched, BatchLanes)
	seq := measureLanes(BenchmarkGNNForwardSequentialLanes, BatchLanes)
	if fused.NsOp*1.5 > seq.NsOp {
		t.Fatalf("refusing to record a baseline below the 1.5x batched margin: "+
			"fused %.0f ns/candidate vs sequential %.0f (%.2fx) — re-run on a quiet machine",
			fused.NsOp, seq.NsOp, seq.NsOp/fused.NsOp)
	}
	base := &Baseline{
		Workload:  WorkloadName,
		Scale:     WorkloadScale,
		ModelSeed: ModelSeed,
		Iters:     RefineIters,
		Benchmarks: map[string]Record{
			"refine_loop":            measure(BenchmarkRefineLoop),
			"refine_batched":         measureLanes(BenchmarkRefineBatched, BatchLanes),
			"gnn_forward":            measure(BenchmarkGNNForward),
			"gnn_forward_batched":    fused,
			"gnn_forward_sequential": seq,
			"sta":                    measure(BenchmarkSTA),
		},
		Metrics:        *out,
		MetricsBatched: *outBatched,
	}
	path, err := BaselinePath()
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Write(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	fmt.Printf("recorded %s:\n%s", path, raw)
}
