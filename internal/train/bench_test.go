package train

import (
	"runtime"
	"testing"

	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/tensor"
)

// BenchmarkTrainStep measures one training step (forward, backward,
// Adam update) on the APU benchmark with one reused workspace and one
// optimizer, as Train runs it. The workspace's pool is as wide as the
// run's GOMAXPROCS, so -cpu 1,2 measures the serial and the split path.
func BenchmarkTrainStep(b *testing.B) {
	s, err := BuildSample("APU", 1.0, true, flow.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := gnn.NewModel(gnn.DefaultConfig(), 1)
	adam := tensor.NewAdam(DefaultOptions().LR, m.Params())
	g, err := m.ConstGeometry(s.Batch, s.Forest)
	if err != nil {
		b.Fatal(err)
	}
	ws := tensor.NewParallelWorkspace(runtime.GOMAXPROCS(0))
	defer ws.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := step(m, adam, s, g, ws, false, nil); err != nil {
			b.Fatal(err)
		}
	}
	st := ws.Stats()
	b.ReportMetric(float64(st.Splits)/float64(b.N), "splits/op")
	b.ReportMetric(float64(st.Reclaimed)/float64(b.N), "reclaimed/op")
}
