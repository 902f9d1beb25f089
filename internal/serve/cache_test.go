package serve

import (
	"testing"

	"tsteiner/internal/gnn"
	"tsteiner/internal/tensor"
)

// TestModelCacheFlightDetachedFromTape checks that a freshly built model
// is cached as a clone whose parameters were never attached to a tape:
// the built model's parameters carry gradient buffers and a pointer to
// the training tape (and its workspace), which a resident cache entry
// must not keep alive.
func TestModelCacheFlightDetachedFromTape(t *testing.T) {
	c := NewModelCache(t.TempDir(), nil)
	var built *gnn.Model
	got, err := c.Get("fam", func() (*gnn.Model, error) {
		built = gnn.NewModel(gnn.DefaultConfig(), 3)
		tp := tensor.NewTape()
		for _, p := range built.Params() {
			tp.Leaf(p) // as training does: every parameter is a tape leaf
		}
		return built, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := c.flights["fam"]
	if fl == nil || fl.m == nil {
		t.Fatal("built model not cached")
	}
	if fl.m == built || got == built || got == fl.m {
		t.Fatal("cache shares a model instance with the build or the caller")
	}
	want := built.Params()
	for i, p := range fl.m.Params() {
		if p.Grad != nil || p.RequiresGrad() {
			t.Fatalf("cached parameter %d is attached to a tape", i)
		}
		for j, v := range p.Data {
			if v != want[i].Data[j] {
				t.Fatalf("cached parameter %d differs from the built model at %d", i, j)
			}
		}
	}
}
