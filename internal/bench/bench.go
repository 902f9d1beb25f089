// Package bench is the repository's benchmark-regression harness. It pins
// one fixed seeded workload (the spm benchmark with an untrained seed-7
// evaluator), exposes deterministic measurement entry points for the three
// hot paths the paper's flow spends its time in — the refine loop, a GNN
// forward pass, and sign-off STA — and records their ns/op, B/op and
// allocs/op together with the refine metrics in BENCH_refine.json at the
// repository root.
//
// The committed baseline serves these gates:
//
//   - TestBenchReplayByteIdentical re-runs the workload at several worker
//     counts and requires the refine metrics and the digest of the final
//     Steiner coordinates to equal the recorded baseline.
//   - TestBenchAllocGate (enabled with -benchgate, wired into verify.sh)
//     re-measures allocs/op and fails when the refine loop or the
//     per-candidate batched refine loop regresses more than 10% over the
//     baseline.
//   - TestBatchReplayByteIdentical does the same replay for the
//     BatchLanes-candidate refine loop against metrics_batched.
//   - TestBatchedBaselineMargin statically holds the committed
//     gnn_forward_batched record to >=1.5x less per-candidate time than
//     gnn_forward_sequential; the recorder enforces the margin when the
//     baseline is rewritten, and the alloc gate re-measures it live with
//     a noise-tolerant 1.3x floor.
//
// Refresh the baseline after intentional changes with
// `go test ./internal/bench -run TestBenchUpdateBaseline -benchupdate`.
package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"tsteiner/internal/core"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/grid"
	"tsteiner/internal/lib"
	"tsteiner/internal/obs"
	"tsteiner/internal/rc"
	"tsteiner/internal/route"
	"tsteiner/internal/sta"
)

// Workload parameters. These pin the seeded benchmark the baseline was
// recorded on; changing any of them requires re-recording BENCH_refine.json.
const (
	WorkloadName  = "spm"
	WorkloadScale = 1.0
	ModelSeed     = 7
	RefineIters   = 6
	BaselineFile  = "BENCH_refine.json"

	// BatchLanes pins the candidate count K of the batched benchmarks and
	// of the batched replay gate: one fused ForwardBatch evaluates
	// BatchLanes candidate coordinate sets against the shared graph
	// structure. Batched records in BENCH_refine.json are normalized to
	// per-candidate cost (divided by BatchLanes, with the lane count
	// recorded) so entries stay comparable across batch sizes.
	BatchLanes = 4
)

// Workload is the fixed seeded benchmark state shared by every
// measurement: a prepared design, its evaluator batch and a seeded model.
type Workload struct {
	Prepared *flow.Prepared
	Batch    *gnn.Batch
	Model    *gnn.Model
}

// NewWorkload builds the pinned workload. Workers only bounds parallel
// fan-outs; every measured quantity is byte-identical at any value.
func NewWorkload(workers int) (*Workload, error) {
	cfg := flow.DefaultConfig()
	cfg.Workers = workers
	p, err := flow.PrepareBenchmark(WorkloadName, WorkloadScale, cfg)
	if err != nil {
		return nil, err
	}
	bt, err := gnn.NewBatch(p.Design, p.Forest)
	if err != nil {
		return nil, err
	}
	return &Workload{Prepared: p, Batch: bt, Model: gnn.NewModel(gnn.DefaultConfig(), ModelSeed)}, nil
}

// RefineOutcome is the algorithmic output of one refine run — everything
// the replay gate compares. CoordHash is an FNV-1a digest over the raw
// bits of the final Steiner coordinates, so "byte-identical coordinates"
// is a single comparable value.
type RefineOutcome struct {
	InitWNS    float64 `json:"init_wns"`
	InitTNS    float64 `json:"init_tns"`
	BestWNS    float64 `json:"best_wns"`
	BestTNS    float64 `json:"best_tns"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	CoordHash  string  `json:"coord_hash"`
}

// RunRefine runs the pinned refine loop on a fresh refiner and returns
// its outcome.
func (w *Workload) RunRefine() (*RefineOutcome, error) {
	opt := core.DefaultOptions()
	opt.N = RefineIters
	return w.runRefine(opt)
}

// RunRefineBatched runs the pinned refine loop with CandidateLanes =
// BatchLanes: each iteration evaluates BatchLanes line-search candidates
// in one fused forward.
func (w *Workload) RunRefineBatched() (*RefineOutcome, error) {
	opt := core.DefaultOptions()
	opt.N = RefineIters
	opt.CandidateLanes = BatchLanes
	return w.runRefine(opt)
}

func (w *Workload) runRefine(opt core.Options) (*RefineOutcome, error) {
	r, err := core.NewRefiner(w.Model, w.Batch, w.Prepared, opt)
	if err != nil {
		return nil, err
	}
	res, err := r.Refine()
	if err != nil {
		return nil, err
	}
	xs, ys, _ := res.Forest.SteinerPositions()
	return &RefineOutcome{
		InitWNS:    res.InitWNS,
		InitTNS:    res.InitTNS,
		BestWNS:    res.BestWNS,
		BestTNS:    res.BestTNS,
		Iterations: res.Iterations,
		Converged:  res.ConvergedByRatio,
		CoordHash:  coordHash(xs, ys),
	}, nil
}

// CandidateCoords stages `lanes` deterministic candidate coordinate sets
// around the prepared forest's Steiner positions, lane-major: lane k
// shifts every point by k·(+7.5, −4.25) DBU — distinct per-lane inputs,
// as the refine loop's line search produces.
func (w *Workload) CandidateCoords(lanes int) (xs, ys []float64, err error) {
	n := w.Batch.NSteiner
	xs = make([]float64, lanes*n)
	ys = make([]float64, lanes*n)
	if err := w.Batch.FillSteinerCoords(w.Prepared.Forest, xs[:n], ys[:n]); err != nil {
		return nil, nil, err
	}
	for k := 1; k < lanes; k++ {
		for i := 0; i < n; i++ {
			xs[k*n+i] = xs[i] + float64(k)*7.5
			ys[k*n+i] = ys[i] - float64(k)*4.25
		}
	}
	return xs, ys, nil
}

func coordHash(xs, ys []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range [][]float64{xs, ys} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// STAState is the once-per-workload routing/extraction state feeding the
// STA benchmark, so the measured loop is the timer alone.
type STAState struct {
	w   *Workload
	rcs []rc.NetRC
}

// PrepareSTA routes and extracts the workload's initial forest.
func (w *Workload) PrepareSTA() (*STAState, error) {
	d := w.Prepared.Design
	cfg := w.Prepared.Config
	rounded := w.Prepared.Forest.Clone()
	rounded.RoundPositions()
	g, err := grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
	if err != nil {
		return nil, err
	}
	gr, err := route.Route(d, rounded, g, cfg.Route)
	if err != nil {
		return nil, err
	}
	rcs, err := rc.Extract(d, rounded, g, gr, w.Prepared.Lib)
	if err != nil {
		return nil, err
	}
	return &STAState{w: w, rcs: rcs}, nil
}

// Run performs one full sign-off STA pass over the extracted parasitics.
func (s *STAState) Run() (*sta.Result, error) {
	return sta.Run(s.w.Prepared.Design, s.rcs)
}

// Record is one benchmark's measured cost. For batched benchmarks Lanes
// is the candidate count K and the costs are normalized per candidate
// (total divided by K), keeping records comparable across batch sizes;
// unbatched records leave Lanes at zero.
type Record struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
	Lanes    int     `json:"lanes,omitempty"`
}

// Baseline is the committed shape of BENCH_refine.json.
type Baseline struct {
	Workload   string            `json:"workload"`
	Scale      float64           `json:"scale"`
	ModelSeed  int               `json:"model_seed"`
	Iters      int               `json:"refine_iters"`
	Benchmarks map[string]Record `json:"benchmarks"`
	Metrics    RefineOutcome     `json:"metrics"`
	// MetricsBatched is the outcome of the BatchLanes-candidate refine
	// run — the reference the batched replay gate compares against.
	MetricsBatched RefineOutcome `json:"metrics_batched"`
}

// BaselinePath locates BENCH_refine.json at the repository root by
// walking up from the working directory to the module root.
func BaselinePath() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, BaselineFile), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no go.mod above working directory")
		}
		dir = parent
	}
}

// LoadBaseline reads the committed baseline.
func LoadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &b, nil
}

// Write serializes the baseline with stable key order (encoding/json
// sorts map keys) so re-recording produces minimal diffs. A provenance
// manifest is written beside the baseline so every recorded number stays
// attributable to the exact workload configuration that produced it.
func (b *Baseline) Write(path string) error {
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	m := obs.NewManifest("bench-update")
	m.Seed = ModelSeed
	m.Lanes = BatchLanes
	m.LibFingerprint = lib.Default().Fingerprint()
	m.ModelHash = gnn.NewModel(gnn.DefaultConfig(), ModelSeed).Hash()
	return m.WriteNextTo(path)
}
