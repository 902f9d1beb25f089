package exp

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"tsteiner/internal/core"
	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/obs"
	"tsteiner/internal/train"
)

// runPipeline executes the small end-to-end pipeline (baseline flow →
// 8-epoch train → N=3 refine with the given candidate lane count →
// sign-off) and serializes every algorithmic output. Wall-clock fields
// (GRSec, ExtractSec, STASec, refinement RuntimeSec) are excluded — they
// differ between any two runs regardless of telemetry — as is the
// resolved Workers annotation; DRSec stays because the DR surrogate's
// runtime is modeled, not measured. sink may be nil (telemetry off).
func runPipeline(t *testing.T, workers, lanes int, sink *obs.Sink) string {
	t.Helper()
	cfg := flow.DefaultConfig()
	cfg.Workers = workers
	cfg.Obs = sink

	smp, err := train.BuildSample("spm", 1.0, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := gnn.NewModel(gnn.DefaultConfig(), 7)
	topt := train.Options{Epochs: 8, LR: 1e-2, Seed: 1, Obs: sink}
	loss, err := train.Train(m, []*train.Sample{smp}, topt)
	if err != nil {
		t.Fatal(err)
	}
	ropt := core.DefaultOptions()
	ropt.N = 3
	ropt.CandidateLanes = lanes
	ref, err := core.NewRefiner(m, smp.Batch, smp.Prepared, ropt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Refine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flow.Signoff(smp.Prepared, res.Forest)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	serialize := func(tag string, r *flow.Report) {
		fmt.Fprintf(&b, "%s wns=%v tns=%v vios=%d wl=%d vias=%d drvs=%d ovf=%d drsec=%v whs=%v hold=%d slew=%d\n",
			tag, r.WNS, r.TNS, r.Vios, r.WirelengthDBU, r.Vias, r.DRVs,
			r.Overflow, r.DRSec, r.WHS, r.HoldVios, r.SlewVios)
	}
	serialize("baseline", smp.Baseline)
	serialize("refined", rep)
	fmt.Fprintf(&b, "loss=%v\nrefine init=(%v,%v) best=(%v,%v) iters=%d converged=%v\n",
		loss, res.InitWNS, res.InitTNS, res.BestWNS, res.BestTNS,
		res.Iterations, res.ConvergedByRatio)
	for i, h := range res.History {
		fmt.Fprintf(&b, "iter %d wns=%v tns=%v theta=%v accepted=%v lane=%d\n",
			i, h.WNS, h.TNS, h.Theta, h.Accepted, h.Lane)
	}
	var fb bytes.Buffer
	if err := designio.WriteForestJSON(&fb, res.Forest); err != nil {
		t.Fatal(err)
	}
	b.Write(fb.Bytes())
	return b.String()
}

// checkPipelinePinned is the pipeline-level refine determinism gate for
// one candidate lane count: at workers ∈ {1, 4} the serialized pipeline
// output — trained loss, per-iteration history including the chosen
// lane, sign-off metrics and final Steiner coordinates — must hash
// (FNV-1a) to want. The digests were recorded with both the pooled
// workspace evaluation and a fresh-tape evaluation per candidate
// agreeing on them.
func checkPipelinePinned(t *testing.T, lanes int, want string) {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: runs the spm pipeline twice")
	}
	for _, w := range []int{1, 4} {
		out := runPipeline(t, w, lanes, nil)
		h := fnv.New64a()
		h.Write([]byte(out))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("lanes=%d workers=%d: pipeline digest %s, pinned %s\n%s",
				lanes, w, got, want, out)
		}
	}
}

// TestWorkspaceForwardMatchesAllocating pins the single-candidate
// (lanes=1) pipeline output to the digest the pooled workspace path and
// the former allocating reference path agreed on.
func TestWorkspaceForwardMatchesAllocating(t *testing.T) {
	checkPipelinePinned(t, 1, "519a0df18eb17f5f")
}

// TestBatchReplayPipelineByteIdentical pins the fused 4-candidate
// (lanes=4) pipeline output to the digest the fused path and the former
// sequential reference path agreed on.
func TestBatchReplayPipelineByteIdentical(t *testing.T) {
	checkPipelinePinned(t, 4, "577f0fd5d2f13869")
}
