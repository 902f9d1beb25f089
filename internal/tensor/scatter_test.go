package tensor

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestPropScatterAddMatchesTwoOpForm: ScatterAdd must reproduce
// Add(a, SegmentSum(v, idx, a.Rows)) bit for bit — values, both
// operands' gradients (a's taken over from the output or added to one
// it already holds) — over random shapes, distinct index sets, special
// values and lane mixes, on a workspace whose pooled buffers hold stale
// values.
func TestPropScatterAddMatchesTwoOpForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	laneSets := [][2]int{{1, 1}, {3, 3}, {1, 3}, {3, 1}}
	ws := NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(9)
		idx := make([]int32, 0, rows)
		for _, r := range rng.Perm(rows)[:rng.Intn(rows+1)] {
			idx = append(idx, int32(r))
		}
		ls := laneSets[rng.Intn(len(laneSets))]
		la, lv := ls[0], ls[1]
		lanes := max(la, lv)
		ad := make([]float64, la*rows*cols)
		vd := make([]float64, lv*len(idx)*cols)
		og := make([]float64, lanes*rows*cols)
		ag0 := make([]float64, len(ad))
		for _, d := range [][]float64{ad, vd, og} {
			specialFill(rng, d)
		}
		// A gradient reaching an op never holds -0 (buffers start at +0
		// or are first written as v + 0); the pass-through of a's
		// gradient relies on it.
		for i, g := range og {
			if g == 0 {
				og[i] = 0
			}
		}
		nonzeroFill(rng, ag0)
		seeded := rng.Intn(2) == 0
		desc := fmt.Sprintf("trial %d: %dx%d, %d indices, lanes a/v=%d/%d, seeded=%v", trial, rows, cols, len(idx), la, lv, seeded)

		run := func(fused bool) (out, ag, vg []float64) {
			tp := ws.Tape()
			a0 := tp.Leaf(&Tensor{Rows: rows, Cols: cols, Lanes: la, Data: ad})
			v0 := tp.Leaf(&Tensor{Rows: len(idx), Cols: cols, Lanes: lv, Data: vd})
			// Differentiate through workspace-owned copies, so both
			// operands draw their gradient buffers from the pool.
			a, _ := tp.Scale(a0, 1)
			v, _ := tp.Scale(v0, 1)
			if seeded {
				a.Grad = append([]float64(nil), ag0...)
			}
			var y *Tensor
			var err error
			if fused {
				y, err = tp.ScatterAdd(a, v, idx)
			} else {
				var s *Tensor
				if s, err = tp.SegmentSum(v, idx, rows); err == nil {
					y, err = tp.Add(a, s)
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			runBackward(tp, y, og)
			out = append([]float64(nil), y.Data...)
			ag = append([]float64(nil), a.Grad...)
			vg = append([]float64(nil), v.Grad...)
			// Leave stale values in the pool for the next run.
			for _, g := range [][]float64{a.Grad, v.Grad, y.Data} {
				for i := range g {
					g[i] = float64(i) - 1e9
				}
			}
			return out, ag, vg
		}
		wantOut, wantAG, wantVG := run(false)
		gotOut, gotAG, gotVG := run(true)
		for _, c := range []struct {
			what      string
			got, want []float64
		}{{"out", gotOut, wantOut}, {"da", gotAG, wantAG}, {"dv", gotVG, wantVG}} {
			if err := sameBits(c.what, c.got, c.want); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		}
	}
}

func TestScatterAddRejectsBadIndices(t *testing.T) {
	tp := NewTape()
	a := tp.Constant(randTensor(4, 2, 1))
	v := tp.Constant(randTensor(2, 2, 2))
	if _, err := tp.ScatterAdd(a, v, []int32{1, 1}); err == nil {
		t.Fatal("repeated row accepted")
	}
	var ie *IndexError
	if _, err := tp.ScatterAdd(a, v, []int32{0, 4}); !errors.As(err, &ie) || ie.Op != "ScatterAdd" || ie.Pos != 1 {
		t.Fatalf("out-of-range row: got %v, want *IndexError at position 1", err)
	}
	if _, err := tp.ScatterAdd(a, v, []int32{0}); err == nil {
		t.Fatal("index count mismatch accepted")
	}
	if _, err := tp.ScatterAdd(a, tp.Constant(randTensor(2, 3, 3)), []int32{0, 1}); err == nil {
		t.Fatal("column mismatch accepted")
	}
}
