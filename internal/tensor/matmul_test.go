package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The loops below are MatMul's and AddRowVector's kernels as they stood
// before the width-8 kernels and the one-op Linear: the bit-level
// reference the production kernels must reproduce.

func refMatMulForward(od, ad, bd []float64, m, k, n int) {
	var acc [32]float64
	switch {
	case n == 1:
		for i := 0; i < m; i++ {
			ar := ad[i*k : (i+1)*k]
			var s float64
			for kk, av := range ar {
				if av == 0 {
					continue
				}
				s += av * bd[kk]
			}
			od[i] = s
		}
	case n <= len(acc):
		for i := 0; i < m; i++ {
			ar := ad[i*k : (i+1)*k]
			ac := acc[:n]
			for j := range ac {
				ac[j] = 0
			}
			for kk := 0; kk < k; kk++ {
				av := ar[kk]
				if av == 0 {
					continue
				}
				br := bd[kk*n : (kk+1)*n : (kk+1)*n]
				for j := range ac {
					ac[j] += av * br[j]
				}
			}
			copy(od[i*n:(i+1)*n], ac)
		}
	default:
		for i := 0; i < m; i++ {
			ar := ad[i*k : (i+1)*k]
			or := od[i*n : (i+1)*n]
			for j := range or {
				or[j] = 0
			}
			for kk := 0; kk < k; kk++ {
				av := ar[kk]
				if av == 0 {
					continue
				}
				br := bd[kk*n : (kk+1)*n]
				for j := 0; j < n; j++ {
					or[j] += av * br[j]
				}
			}
		}
	}
}

// refMatMulGradA is dA = dOut · Bᵀ.
func refMatMulGradA(ag, bd, og []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		gr := og[i*n : (i+1)*n]
		agr := ag[i*k : (i+1)*k]
		for kk := 0; kk < k; kk++ {
			br := bd[kk*n : (kk+1)*n]
			var s float64
			for j := 0; j < n; j++ {
				s += gr[j] * br[j]
			}
			agr[kk] += s
		}
	}
}

// refMatMulGradB is dB = Aᵀ · dOut.
func refMatMulGradB(bg, ad, og []float64, m, k, n int) {
	for kk := 0; kk < k; kk++ {
		bgr := bg[kk*n : (kk+1)*n]
		for i := 0; i < m; i++ {
			av := ad[i*k+kk]
			if av == 0 {
				continue
			}
			gr := og[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bgr[j] += av * gr[j]
			}
		}
	}
}

// refAddRowVector adds the bias row to every row of y in place.
func refAddRowVector(y, vd []float64, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			y[i*cols+j] = y[i*cols+j] + vd[j]
		}
	}
}

// refAddRowVectorGrad is AddRowVector's backward: the bias gradient and
// the pass-through gradient into the product's freshly zeroed buffer.
func refAddRowVectorGrad(vg, yg, og []float64, rows, cols int) {
	for i := range og {
		yg[i] += og[i]
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			vg[j] += og[i*cols+j]
		}
	}
}

// laneBlock returns lane l's block of a lanes×st buffer, or its only
// block when it broadcasts.
func laneBlock(d []float64, lanes, st, l int) []float64 {
	if lanes == 1 {
		return d[:st]
	}
	return d[l*st : (l+1)*st]
}

// specialFill draws values with zeros of both signs, infinities and NaN
// mixed into normal entries. The NaN is the hardware's default NaN, made
// by Inf·0 at run time: the only NaN the arithmetic itself produces, so
// the comparison never depends on which operand's payload an
// instruction happens to propagate.
func specialFill(rng *rand.Rand, d []float64) {
	nan := math.Inf(1) * float64(rng.Intn(1))
	for i := range d {
		switch rng.Intn(12) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = math.Copysign(0, -1)
		case 2:
			d[i] = math.Inf(1)
		case 3:
			d[i] = math.Inf(-1)
		case 4:
			d[i] = nan
		default:
			d[i] = rng.NormFloat64()
		}
	}
}

// nonzeroFill draws finite nonzero values (pre-seeded gradients).
func nonzeroFill(rng *rand.Rand, d []float64) {
	for i := range d {
		d[i] = rng.NormFloat64() + 3
	}
}

func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v (%#x), reference %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// runBackward replays tp's recorded backward steps with out.Grad = og,
// so the gradient fed to the op under test can hold any value.
func runBackward(tp *Tape, out *Tensor, og []float64) {
	out.Grad = append([]float64(nil), og...)
	for i := len(tp.backwards) - 1; i >= 0; i-- {
		tp.backwards[i]()
	}
}

// TestPropMatMulKernelsMatchReference: MatMul and the one-op Linear must
// reproduce the reference loops bit for bit — forward output, dA, dB and
// the bias gradient — over random shapes (every width class, the
// width-8 kernels included), entries with ±0, ±Inf and NaN, 1 and 3
// lanes with a 1-lane broadcast on either side, and gradients that
// already hold values. A second pass differentiates through a
// workspace whose pooled buffers hold stale values, so dA exercises the
// store-on-first-write path of an un-zeroed gradient buffer.
func TestPropMatMulKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	widths := []int{1, 4, 7, 8, 9, 16, 24, 40}
	laneSets := [][2]int{{1, 1}, {3, 3}, {1, 3}, {3, 1}}
	ws := NewWorkspace()
	for trial := 0; trial < 600; trial++ {
		m, k, n := rng.Intn(41), 1+rng.Intn(20), widths[rng.Intn(len(widths))]
		ls := laneSets[rng.Intn(len(laneSets))]
		la, lb := ls[0], ls[1]
		lanes := max(la, lb)
		withBias := rng.Intn(3) > 0
		lv := 1
		if withBias && rng.Intn(2) == 0 {
			lv = lanes
		}
		ad := make([]float64, la*m*k)
		bd := make([]float64, lb*k*n)
		vd := make([]float64, lv*n)
		og := make([]float64, lanes*m*n)
		ag0 := make([]float64, len(ad))
		bg0 := make([]float64, len(bd))
		vg0 := make([]float64, len(vd))
		for _, d := range [][]float64{ad, bd, vd, og} {
			specialFill(rng, d)
		}
		for _, d := range [][]float64{ag0, bg0, vg0} {
			nonzeroFill(rng, d)
		}
		desc := fmt.Sprintf("trial %d: m=%d k=%d n=%d lanes a/b/bias=%d/%d/%d bias=%v", trial, m, k, n, la, lb, lv, withBias)

		// Reference: MatMul, then AddRowVector, lane by lane.
		st := m * n
		wantOut := make([]float64, lanes*st)
		wantAG := append([]float64(nil), ag0...)
		wantBG := append([]float64(nil), bg0...)
		wantVG := append([]float64(nil), vg0...)
		wantFreshAG := make([]float64, len(ad))
		for l := 0; l < lanes; l++ {
			a, b := laneBlock(ad, la, m*k, l), laneBlock(bd, lb, k*n, l)
			o := wantOut[l*st : (l+1)*st]
			refMatMulForward(o, a, b, m, k, n)
			g := og[l*st : (l+1)*st]
			if withBias {
				refAddRowVector(o, laneBlock(vd, lv, n, l), m, n)
				yg := make([]float64, st)
				refAddRowVectorGrad(laneBlock(wantVG, lv, n, l), yg, g, m, n)
				g = yg
			}
			refMatMulGradA(laneBlock(wantAG, la, m*k, l), b, g, m, k, n)
			refMatMulGradA(laneBlock(wantFreshAG, la, m*k, l), b, g, m, k, n)
			refMatMulGradB(laneBlock(wantBG, lb, k*n, l), a, g, m, k, n)
		}

		// Leaves whose gradients already hold values: every kernel
		// accumulates.
		tp := NewTape()
		leaf := func(lanes, rows, cols int, data, grad []float64) *Tensor {
			x := &Tensor{Rows: rows, Cols: cols, Lanes: lanes, Data: data, Grad: append([]float64(nil), grad...)}
			return tp.Leaf(x)
		}
		a, b, v := leaf(la, m, k, ad, ag0), leaf(lb, k, n, bd, bg0), leaf(lv, 1, n, vd, vg0)
		var out *Tensor
		var err error
		if withBias {
			out, err = tp.Linear(a, b, v)
		} else {
			out, err = tp.MatMul(a, b)
		}
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		runBackward(tp, out, og)
		for _, c := range []struct {
			what      string
			got, want []float64
		}{{"out", out.Data, wantOut}, {"dA", a.Grad, wantAG}, {"dB", b.Grad, wantBG}, {"dBias", v.Grad, wantVG}} {
			if c.what == "dBias" && !withBias {
				continue
			}
			if err := sameBits(c.what, c.got, c.want); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		}

		// A as a workspace-owned op output: its gradient buffer comes
		// from the pool un-zeroed (stale values from the previous
		// trials), and dA must still equal the sum from zero.
		wtp := ws.Tape()
		x := wtp.Leaf(&Tensor{Rows: m, Cols: k, Lanes: la, Data: ad})
		aw, err := wtp.Scale(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		var outW *Tensor
		if withBias {
			outW, err = wtp.Linear(aw, wtp.Constant(&Tensor{Rows: k, Cols: n, Lanes: lb, Data: bd}), wtp.Constant(&Tensor{Rows: 1, Cols: n, Lanes: lv, Data: vd}))
		} else {
			outW, err = wtp.MatMul(aw, wtp.Constant(&Tensor{Rows: k, Cols: n, Lanes: lb, Data: bd}))
		}
		if err != nil {
			t.Fatal(err)
		}
		runBackward(wtp, outW, og)
		if err := sameBits("fresh dA", aw.Grad, wantFreshAG); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		// Leave garbage behind for the next trial's pooled buffers.
		for i := range aw.Grad {
			aw.Grad[i] = math.NaN()
		}
	}
}
