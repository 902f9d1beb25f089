package train

import (
	"io"
	"math"
	"strings"
	"testing"

	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
	"tsteiner/internal/obs"
)

func sample(t *testing.T, name string, scale float64, train bool) *Sample {
	t.Helper()
	s, err := BuildSample(name, scale, train, flow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildSample(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	if len(s.Labels) != s.Prepared.Design.NumPins() {
		t.Fatalf("labels %d for %d pins", len(s.Labels), s.Prepared.Design.NumPins())
	}
	if s.Baseline == nil || s.Baseline.WNS >= 0 {
		t.Fatalf("baseline report missing or implausible: %+v", s.Baseline)
	}
	// Labels contain nonzero arrivals.
	nz := 0
	for _, v := range s.Labels {
		if v > 0 {
			nz++
		}
	}
	if nz < len(s.Labels)/4 {
		t.Fatalf("only %d of %d labels nonzero", nz, len(s.Labels))
	}
}

func TestTrainReducesLoss(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	m := gnn.NewModel(gnn.DefaultConfig(), 5)

	var losses []float64
	opt := Options{Epochs: 60, LR: 1e-2, Seed: 1, Verbose: func(_ int, l float64) {
		losses = append(losses, l)
	}}
	final, err := Train(m, []*Sample{s}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != opt.Epochs {
		t.Fatalf("verbose called %d times", len(losses))
	}
	if final >= losses[0] {
		t.Fatalf("training did not reduce loss: %g -> %g", losses[0], final)
	}
	if final > losses[0]*0.5 {
		t.Errorf("weak convergence: %g -> %g", losses[0], final)
	}
}

func TestTrainImprovesR2(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	before, err := Evaluate(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m, []*Sample{s}, Options{Epochs: 120, LR: 1e-2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	after, err := Evaluate(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if after.ArrivalAll <= before.ArrivalAll {
		t.Fatalf("R² did not improve: %g -> %g", before.ArrivalAll, after.ArrivalAll)
	}
	if after.ArrivalAll < 0.7 {
		t.Errorf("train-set R²=%g too low after training", after.ArrivalAll)
	}
}

func TestTrainValidation(t *testing.T) {
	s := sample(t, "spm", 1.0, false) // test-only sample
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	if _, err := Train(m, []*Sample{s}, DefaultOptions()); err == nil {
		t.Fatal("training with no train samples accepted")
	}
	s.Train = true
	// The error names the bad field and nothing else: no dump of the
	// Verbose func, the Obs/Budget/Fault pointers or the checkpoint path.
	noisy := Options{Verbose: func(int, float64) {}, Obs: obs.New(io.Discard), Budget: &guard.Budget{},
		Fault: fault.New(1), CheckpointPath: "ckpt"}
	for _, c := range []struct {
		field      string
		epochs     int
		lr         float64
		wantInText string
	}{{"Epochs", 0, 1e-3, "Epochs 0"}, {"LR", 1, 0, "LR 0"}, {"LR", 1, math.NaN(), "LR NaN"}} {
		opt := noisy
		opt.Epochs, opt.LR = c.epochs, c.lr
		_, err := Train(m, []*Sample{s}, opt)
		if err == nil {
			t.Fatalf("bad %s accepted: %+v", c.field, c)
		}
		msg := err.Error()
		if !strings.Contains(msg, c.wantInText) || strings.Contains(msg, "0x") || strings.Contains(msg, "ckpt") {
			t.Errorf("bad %s: error %q should name the field only", c.field, msg)
		}
	}
}

func TestEvaluateGeneralizes(t *testing.T) {
	// Train on one small design, evaluate on another: R² on the unseen
	// design must beat the mean predictor (R² > 0), showing the evaluator
	// learns transferable physics, not a lookup table.
	tr := sample(t, "spm", 1.0, true)
	te := sample(t, "cic_decimator", 1.0, false)
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	if _, err := Train(m, []*Sample{tr}, Options{Epochs: 120, LR: 1e-2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	sc, err := Evaluate(m, te)
	if err != nil {
		t.Fatal(err)
	}
	if sc.ArrivalAll <= 0 {
		t.Errorf("unseen-design R²=%g; evaluator failed to generalize", sc.ArrivalAll)
	}
}
