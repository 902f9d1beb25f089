package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// splitCase is one split op under test: its leaves, the op itself, the
// largest work a single split call of its forward is handed (the size
// the split threshold is compared against) and that call's split-axis
// extent.
type splitCase struct {
	desc         string
	leaves       []*Tensor // Data set; Grad set when pre-seeded
	fresh        []bool    // differentiate through a workspace-owned copy
	op           func(tp *Tape, in []*Tensor) (*Tensor, error)
	work, extent int
	og           []float64
}

// splitRows draws a row count: tiny, odd and ragged ones, a few around
// the pool widths.
func splitRows(rng *rand.Rand) int {
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 13, 31}
	if rng.Intn(3) == 0 {
		return 32 + rng.Intn(90)
	}
	return sizes[rng.Intn(len(sizes))]
}

func randLeaf(rng *rand.Rand, lanes, rows, cols int) *Tensor {
	t := &Tensor{Rows: rows, Cols: cols, Lanes: lanes, Data: make([]float64, max(lanes, 1)*rows*cols)}
	specialFill(rng, t.Data)
	return t
}

// newSplitCase draws one op of the given kind with random shapes,
// 1 or 3 lanes and, per operand, a pre-seeded or a fresh gradient.
func newSplitCase(rng *rand.Rand, kind string) *splitCase {
	lanes := []int{1, 3}[rng.Intn(2)]
	other := []int{1, lanes}[rng.Intn(2)] // a broadcast operand, or not
	m, c := splitRows(rng), 1+rng.Intn(10)
	sc := &splitCase{}
	var outLanes, outRows, outCols int
	switch kind {
	case "Linear":
		k, n := 1+rng.Intn(19), []int{1, 3, 8, 16}[rng.Intn(4)]
		sc.leaves = []*Tensor{randLeaf(rng, lanes, m, k), randLeaf(rng, other, k, n), randLeaf(rng, 1, 1, n)}
		sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.Linear(in[0], in[1], in[2]) }
		sc.work, sc.extent = m*k*n, m
		outLanes, outRows, outCols = lanes, m, n
		sc.desc = fmt.Sprintf("k=%d n=%d", k, n)
	case "Tanh", "Softplus":
		sc.leaves = []*Tensor{randLeaf(rng, lanes, m, c)}
		if kind == "Tanh" {
			sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.Tanh(in[0]) }
			sc.work = lanes * m * c * costTanh
		} else {
			sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.Softplus(in[0]) }
			sc.work = lanes * m * c * costSoftplus
		}
		sc.extent = lanes * m * c
		outLanes, outRows, outCols = lanes, m, c
	case "Add", "Mul":
		sc.leaves = []*Tensor{randLeaf(rng, lanes, m, c), randLeaf(rng, other, m, c)}
		if rng.Intn(2) == 0 {
			sc.leaves[0], sc.leaves[1] = sc.leaves[1], sc.leaves[0]
		}
		if kind == "Add" {
			sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.Add(in[0], in[1]) }
		} else {
			sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.Mul(in[0], in[1]) }
		}
		sc.work, sc.extent = m*c, m*c
		outLanes, outRows, outCols = lanes, m, c
	case "ConcatCols":
		// The first part is listed twice: its gradient accumulates over
		// both occurrences in order.
		c2 := 1 + rng.Intn(4)
		sc.leaves = []*Tensor{randLeaf(rng, lanes, m, c), randLeaf(rng, other, m, c2)}
		sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.ConcatCols(in[0], in[1], in[0]) }
		sc.work, sc.extent = m*max(c, c2), m
		outLanes, outRows, outCols = lanes, m, 2*c+c2
	case "GatherRows":
		// Repeated rows: the backward scatters several rows into one.
		src := max(1, splitRows(rng))
		idx := make([]int32, m)
		for i := range idx {
			idx[i] = int32(rng.Intn(src))
		}
		sc.leaves = []*Tensor{randLeaf(rng, lanes, src, c)}
		sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.GatherRows(in[0], idx) }
		sc.work, sc.extent = m*c, m
		outLanes, outRows, outCols = lanes, m, c
	case "SegmentSum":
		// Repeated destinations and empty buckets.
		nOut := splitRows(rng)
		if nOut == 0 {
			m = 0
		}
		seg := make([]int32, m)
		for i := range seg {
			seg[i] = int32(rng.Intn(nOut))
		}
		sc.leaves = []*Tensor{randLeaf(rng, lanes, m, c)}
		sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.SegmentSum(in[0], seg, nOut) }
		sc.work, sc.extent = (m+nOut)*c, nOut
		outLanes, outRows, outCols = lanes, nOut, c
	case "ScatterAdd":
		perm := rng.Perm(m)
		idx := make([]int32, rng.Intn(m+1))
		for i := range idx {
			idx[i] = int32(perm[i])
		}
		sc.leaves = []*Tensor{randLeaf(rng, lanes, m, c), randLeaf(rng, other, len(idx), c)}
		if rng.Intn(2) == 0 {
			sc.leaves[0], sc.leaves[1] = randLeaf(rng, other, m, c), randLeaf(rng, lanes, len(idx), c)
		}
		sc.op = func(tp *Tape, in []*Tensor) (*Tensor, error) { return tp.ScatterAdd(in[0], in[1], idx) }
		sc.work, sc.extent = (m+len(idx))*c, m
		outLanes, outRows, outCols = max(sc.leaves[0].LaneCount(), sc.leaves[1].LaneCount()), m, c
	}
	for _, l := range sc.leaves {
		fresh := rng.Intn(2) == 0
		sc.fresh = append(sc.fresh, fresh)
		if !fresh {
			l.Grad = make([]float64, len(l.Data))
			nonzeroFill(rng, l.Grad)
		}
	}
	sc.og = make([]float64, outLanes*outRows*outCols)
	specialFill(rng, sc.og)
	// A gradient reaching an op never holds -0 (see ScatterAdd).
	for i, g := range sc.og {
		if g == 0 {
			sc.og[i] = 0
		}
	}
	sc.desc = fmt.Sprintf("%s lanes=%d/%d rows=%d cols=%d %s", kind, lanes, other, m, c, sc.desc)
	return sc
}

// run evaluates the case on ws and returns the output values and every
// operand gradient, concatenated, plus the number of forward splits.
func (sc *splitCase) run(t *testing.T, ws *Workspace) ([]float64, int64) {
	t.Helper()
	tp := ws.Tape()
	in := make([]*Tensor, len(sc.leaves))
	for i, l := range sc.leaves {
		leaf := &Tensor{Rows: l.Rows, Cols: l.Cols, Lanes: l.Lanes, Data: l.Data}
		if sc.fresh[i] {
			tp.Leaf(leaf)
			in[i], _ = tp.Scale(leaf, 1)
			continue
		}
		leaf.Grad = append([]float64(nil), l.Grad...)
		in[i] = tp.Leaf(leaf)
	}
	s0 := ws.Stats().Splits
	out, err := sc.op(tp, in)
	if err != nil {
		t.Fatalf("%s: %v", sc.desc, err)
	}
	splits := ws.Stats().Splits - s0
	// Replay only the op's own backward step: the Scale copies' steps
	// would fold the fresh gradients back into the leaves.
	out.Grad = append([]float64(nil), sc.og...)
	tp.backwards[len(tp.backwards)-1]()
	got := append([]float64(nil), out.Data...)
	for _, x := range in {
		got = append(got, x.Grad...)
	}
	// Leave stale values in the pool for the next run.
	for _, x := range append(in, out) {
		for i := range x.Grad {
			x.Grad[i] = math.NaN()
		}
		if x.wsOwned {
			for i := range x.Data {
				x.Data[i] = float64(i) - 1e9
			}
		}
	}
	return got, splits
}

// TestPropSplitKernelsBitwise: every kernel the pool splits must give
// the bits of the serial run at widths 2 and 3 — forward values and
// every operand gradient, accumulated into pre-seeded buffers or stored
// into fresh pooled ones holding stale values — over ragged and tiny
// shapes (fewer rows than the width included), 1 and 3 lanes with 1-lane
// broadcasts, repeated gather and segment indices, and split thresholds
// at 1 and at the op's work −1, +0 and +1. An op splits exactly when its
// work reaches the threshold.
func TestPropSplitKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kinds := []string{"Linear", "Tanh", "Softplus", "Add", "Mul", "ConcatCols", "GatherRows", "SegmentSum", "ScatterAdd"}
	serial := NewWorkspace()
	for trial := 0; trial < 400; trial++ {
		sc := newSplitCase(rng, kinds[trial%len(kinds)])
		want, _ := sc.run(t, serial)
		for _, width := range []int{2, 3} {
			for _, minSplit := range []int{1, sc.work - 1, sc.work, sc.work + 1} {
				if minSplit < 1 {
					continue
				}
				// The second pass reads pooled buffers the first left stale.
				ws := newWorkspace(width, minSplit)
				for pass := 0; pass < 2; pass++ {
					got, splits := sc.run(t, ws)
					desc := fmt.Sprintf("trial %d %s width=%d minSplit=%d pass %d", trial, sc.desc, width, minSplit, pass)
					if err := sameBits("values+grads", got, want); err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					if splitWanted := sc.work >= minSplit && sc.extent > 1; (splits > 0) != splitWanted {
						t.Fatalf("%s: work %d gave %d forward splits", desc, sc.work, splits)
					}
				}
				ws.Close()
			}
		}
	}
}

// TestSplitPoolPanicAndClose: a kernel panic in either block reaches the
// caller only after the op has drained, the pool keeps working after it,
// and a closed workspace runs every op serially with its counters kept.
func TestSplitPoolPanicAndClose(t *testing.T) {
	ws := newWorkspace(2, 1)
	x := &Tensor{Rows: 4, Cols: 1, Data: []float64{1, 2, 3, 4}}
	out := make([]float64, 4)
	for _, bad := range [][]int32{{0, 1, 2, 9}, {9, 1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("index %v: no panic reached the caller", bad)
				}
			}()
			ws.pool.run(&task{op: kGather, out: out, x: x.Data, idx: bad, n: 1}, len(bad))
		}()
	}
	add := func() []float64 {
		tp := ws.Tape()
		y, err := tp.Add(tp.Constant(x), tp.Constant(x))
		if err != nil {
			t.Fatal(err)
		}
		return y.Data
	}
	if err := sameBits("after panic", add(), []float64{2, 4, 6, 8}); err != nil {
		t.Fatal(err)
	}
	before := ws.Stats().Splits
	ws.Close()
	ws.Close()
	if err := sameBits("after close", add(), []float64{2, 4, 6, 8}); err != nil {
		t.Fatal(err)
	}
	if after := ws.Stats().Splits; after != before || before == 0 {
		t.Fatalf("splits %d before close, %d after", before, after)
	}
}
