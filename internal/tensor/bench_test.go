package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(512, 64)
	w := NewMatrix(64, 64)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		tp.Constant(a)
		tp.Constant(w)
		if _, err := tp.MatMul(a, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatherSegmentSum(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	src := NewMatrix(100000, 8)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	idx := make([]int32, 200000)
	seg := make([]int32, 200000)
	for i := range idx {
		idx[i] = int32(rng.Intn(src.Rows))
		seg[i] = int32(rng.Intn(50000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		tp.Constant(src)
		g, err := tp.GatherRows(src, idx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tp.SegmentSum(g, seg, 50000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := NewMatrix(20000, 12)
	w1 := NewMatrix(12, 8)
	w2 := NewMatrix(8, 1)
	b1 := NewMatrix(1, 8)
	b2 := NewMatrix(1, 1)
	for _, t := range []*Tensor{x, w1, w2, b1, b2} {
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64() * 0.3
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		tp.Constant(x)
		for _, t := range []*Tensor{w1, w2, b1, b2} {
			t.ZeroGrad()
			tp.Leaf(t)
		}
		h, err := tp.Linear(x, w1, b1)
		if err != nil {
			b.Fatal(err)
		}
		a, _ := tp.Tanh(h)
		o, err := tp.Linear(a, w2, b2)
		if err != nil {
			b.Fatal(err)
		}
		loss, _ := tp.Sum(o)
		if err := tp.Backward(loss); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitAdd times one forward Add of n elements on a workspace
// of width 1 and 2 with every op split (minSplit 1): where the two
// cross is the size below which a split costs more than it saves, the
// measurement behind defaultMinSplit (an Add element is one work unit).
func BenchmarkSplitAdd(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 16} {
		x, y := NewMatrix(n, 1), NewMatrix(n, 1)
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/width=%d", n, width), func(b *testing.B) {
				ws := newWorkspace(width, 1)
				defer ws.Close()
				for i := 0; i < b.N; i++ {
					tp := ws.Tape()
					if _, err := tp.Add(tp.Constant(x), tp.Constant(y)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
