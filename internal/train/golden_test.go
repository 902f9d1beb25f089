package train

import (
	"math"
	"testing"

	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
)

// goldenSamples is spm at full scale plus two seeded perturbation
// variants: the training set the pinned values below were recorded on.
func goldenSamples(t testing.TB) []*Sample {
	t.Helper()
	s, err := BuildSample("spm", 1.0, true, flow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := Augment(s, 2, 10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return append([]*Sample{s}, vs...)
}

// TestTrainedModelHashPinned pins the bits of a short training run: the
// trained parameters (via Model.Hash), the returned loss and the all-pin
// and endpoint R² of Evaluate. Any kernel or training-loop change that
// reorders a floating-point operation moves at least one of them.
func TestTrainedModelHashPinned(t *testing.T) {
	samples := goldenSamples(t)
	m := gnn.NewModel(gnn.DefaultConfig(), 1)
	loss, err := Train(m, samples, Options{Epochs: 20, LR: DefaultOptions().LR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Evaluate(m, samples[0])
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantHash   = "800e148dc28434c8"
		wantLoss   = 0x3f8b465d6af1a280 // 0.01331780417076911
		wantR2All  = 0x3fe5a044ba10549e
		wantR2Ends = 0x3fe072753f4795d8 // 0.513971923440006
	)
	if h := m.Hash(); h != wantHash {
		t.Errorf("model hash %s, want %s", h, wantHash)
	}
	if b := math.Float64bits(loss); b != wantLoss {
		t.Errorf("loss bits %#x (%g), want %#x", b, loss, wantLoss)
	}
	if b := math.Float64bits(sc.ArrivalAll); b != wantR2All {
		t.Errorf("all-pin R² bits %#x (%g), want %#x", b, sc.ArrivalAll, wantR2All)
	}
	if b := math.Float64bits(sc.ArrivalEnds); b != wantR2Ends {
		t.Errorf("endpoint R² bits %#x (%g), want %#x", b, sc.ArrivalEnds, wantR2Ends)
	}
}
