package tensor

import "fmt"

// MatMul returns a·b for a [m×k] and b [k×n], per lane; a 1-lane operand
// (shared weights against K-lane activations, or vice versa) broadcasts
// and its gradient accumulates over lanes in fixed lane order.
func (tp *Tape) MatMul(a, b *Tensor) (*Tensor, error) {
	return tp.linear(a, b, nil)
}

// Linear returns x·W + b as one tape op: the bias is added in the
// product's epilogue and its gradient reduced in the op's own backward.
// b is a 1×n (or n×1) row added to every output row, per lane; it may be
// unbatched (a shared bias) or carry one vector per lane. Every output
// element is (Σ_k x·W) + b — the product summed from zero, then the bias
// — and every gradient matches a MatMul followed by a separate bias add
// bit for bit.
func (tp *Tape) Linear(x, w, b *Tensor) (*Tensor, error) {
	if b.laneStride() != w.Cols {
		return nil, fmt.Errorf("tensor: bias of %d for %d cols", b.laneStride(), w.Cols)
	}
	return tp.linear(x, w, b)
}

// linear is the shared MatMul/Linear op; bias is nil for a plain product.
func (tp *Tape) linear(a, b, bias *Tensor) (*Tensor, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("tensor: matmul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	lanes, err := laneCompat(a, b)
	if err != nil {
		return nil, err
	}
	req := a.requiresGrad || b.requiresGrad
	if bias != nil {
		lb := bias.LaneCount()
		if lb != 1 && lb != lanes && lanes != 1 {
			return nil, fmt.Errorf("tensor: lane mismatch %d vs %d", lanes, lb)
		}
		if lb > lanes {
			lanes = lb
		}
		req = req || bias.requiresGrad
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	out := tp.resultRaw(lanes, m, n, req)
	st := out.laneStride()
	for l := 0; l < lanes; l++ {
		var bv []float64
		if bias != nil {
			bv = opLane(bias, l)
		}
		tp.split(&task{op: kMMForward, out: out.Data[l*st : (l+1)*st], x: opLane(a, l), y: opLane(b, l), z: bv, k: k, n: n}, m, m*k*n)
	}
	if !req {
		return out, nil
	}
	tp.record(func() {
		if out.Grad == nil {
			return
		}
		if bias != nil && bias.requiresGrad {
			bias.ensureGrad()
			for l := 0; l < lanes; l++ {
				tp.split(&task{op: kBiasGrad, out: opLaneGrad(bias, l), x: out.Grad[l*st : (l+1)*st], m: m, n: n}, n, m*n)
			}
		}
		if a.requiresGrad {
			fresh := a.gradRaw()
			for l := 0; l < lanes; l++ {
				tp.split(&task{op: kMMGradA, out: opLaneGrad(a, l), x: out.Grad[l*st : (l+1)*st], y: opLane(b, l), k: k, n: n, first: firstWrite(fresh, a, l)}, m, m*k*n)
			}
		}
		if b.requiresGrad {
			b.ensureGrad()
			for l := 0; l < lanes; l++ {
				tp.split(&task{op: kMMGradB, out: opLaneGrad(b, l), x: opLane(a, l), y: out.Grad[l*st : (l+1)*st], m: m, k: k, n: n}, k, m*k*n)
			}
		}
	})
	return out, nil
}

// The kernels below work on one lane. Every output element is summed in
// index order starting from zero (the forward and dA) or from the
// gradient already accumulated (dB and the bias), with the forward and dB
// skipping zero entries of a. The width-8 kernels only keep values in
// locals instead of memory and change the loop nest around them; they
// never reorder a floating-point addition, so every width produces the
// bits of the plain loops.

// mmForward writes od = ad·bd for ad [m×k] and bd [k×n], adding bias to
// each finished row when bias is non-nil.
func mmForward(od, ad, bd, bias []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		ar, or := ad[i*k:(i+1)*k], od[i*n:(i+1)*n]
		switch {
		case n == 1:
			var s float64
			for kk, av := range ar {
				if av == 0 {
					continue
				}
				s += av * bd[kk]
			}
			or[0] = s
		case n%8 == 0:
			for jb := 0; jb < n; jb += 8 {
				var c0, c1, c2, c3, c4, c5, c6, c7 float64
				bo := jb - n
				for _, av := range ar {
					bo += n
					if av == 0 {
						continue
					}
					br := (*[8]float64)(bd[bo:])
					c0 += av * br[0]
					c1 += av * br[1]
					c2 += av * br[2]
					c3 += av * br[3]
					c4 += av * br[4]
					c5 += av * br[5]
					c6 += av * br[6]
					c7 += av * br[7]
				}
				o := (*[8]float64)(or[jb:])
				o[0], o[1], o[2], o[3] = c0, c1, c2, c3
				o[4], o[5], o[6], o[7] = c4, c5, c6, c7
			}
		default:
			for j := range or {
				or[j] = 0
			}
			for kk, av := range ar {
				if av == 0 {
					continue
				}
				br := bd[kk*n : (kk+1)*n]
				for j := range or {
					or[j] += av * br[j]
				}
			}
		}
		if bias != nil {
			addTo(or, bias)
		}
	}
}

// mmGradA accumulates dA = dOut·Bᵀ into ag: ag[i][kk] += Σ_j og[i][j]·bd[kk][j]
// (stored instead when first is set, see gradRaw). The width-8 kernel
// computes four kk outputs of a row at once, so four independent sums
// are in flight instead of one.
func mmGradA(ag, bd, og []float64, m, k, n int, first bool) {
	for i := 0; i < m; i++ {
		gr := og[i*n : (i+1)*n]
		agr := ag[i*k : (i+1)*k]
		kk := 0
		for ; n%8 == 0 && kk+4 <= k; kk += 4 {
			var s0, s1, s2, s3 float64
			for jb := 0; jb < n; jb += 8 {
				g := (*[8]float64)(gr[jb:])
				o := kk*n + jb
				b0 := (*[8]float64)(bd[o:])
				b1 := (*[8]float64)(bd[o+n:])
				b2 := (*[8]float64)(bd[o+2*n:])
				b3 := (*[8]float64)(bd[o+3*n:])
				for j, gj := range g {
					s0 += gj * b0[j]
					s1 += gj * b1[j]
					s2 += gj * b2[j]
					s3 += gj * b3[j]
				}
			}
			gradPut(&agr[kk], s0, first)
			gradPut(&agr[kk+1], s1, first)
			gradPut(&agr[kk+2], s2, first)
			gradPut(&agr[kk+3], s3, first)
		}
		for ; kk < k; kk++ {
			br := bd[kk*n : (kk+1)*n]
			var s float64
			for j, g := range gr {
				s += g * br[j]
			}
			gradPut(&agr[kk], s, first)
		}
	}
}

// mmGradB accumulates rows [k0, k1) of dB = Aᵀ·dOut into bg:
// bg[kk][j] += Σ_i ad[i][kk]·og[i][j]. It streams a and dOut once, row
// by row, adding each row's terms into the [k×n] gradient, which stays
// in cache; the width-8 kernel holds 8 of the row's dOut entries in
// locals across the row of a. Every block of kk still walks i in order.
func mmGradB(bg, ad, og []float64, m, k, n, k0, k1 int) {
	for i := 0; i < m; i++ {
		ar, gr := ad[i*k+k0:i*k+k1], og[i*n:(i+1)*n]
		if n%8 != 0 {
			for kk, av := range ar {
				if av == 0 {
					continue
				}
				bgr := bg[(k0+kk)*n : (k0+kk+1)*n]
				for j, x := range gr {
					bgr[j] += av * x
				}
			}
			continue
		}
		for jb := 0; jb < n; jb += 8 {
			g := (*[8]float64)(gr[jb:])
			g0, g1, g2, g3, g4, g5, g6, g7 := g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7]
			bo := k0*n + jb - n
			for _, av := range ar {
				bo += n
				if av == 0 {
					continue
				}
				c := (*[8]float64)(bg[bo:])
				c[0] += av * g0
				c[1] += av * g1
				c[2] += av * g2
				c[3] += av * g3
				c[4] += av * g4
				c[5] += av * g5
				c[6] += av * g6
				c[7] += av * g7
			}
		}
	}
}

// biasGrad accumulates columns [j0, j1) of the bias gradient
// vg[j] += Σ_i og[i][j].
func biasGrad(vg, og []float64, m, n, j0, j1 int) {
	for i := 0; i < m; i++ {
		addTo(vg[j0:j1], og[i*n+j0:i*n+j1])
	}
}
