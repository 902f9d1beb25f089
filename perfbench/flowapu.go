package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"tsteiner/internal/core"
	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/par"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
	"tsteiner/internal/train"
)

// The flow-apu workload is cmd/tsteiner's GNN path on APU at scale 1.0
// with the CLI defaults and -workers 2; the workload seed is the CLI's
// -seed (model init, augmentation and training order).
const (
	flowDesign   = "APU"
	flowEpochs   = 150
	flowIters    = 25
	flowAugment  = 2
	augmentDist  = 10 // DBU, train.Augment's radius in cmd/tsteiner
	setupRepeats = 9
)

// flowOut is what one flow run produced, reduced to digests.
type flowOut struct {
	baseline   string // report digest of the baseline sign-off
	labels     string // baseline label digest
	augLabels  []string
	modelHash  string
	r2All      float64
	r2Ends     float64
	refined    string // refined forest digest
	refinedRep *flow.Report
	baseRep    *flow.Report
	iterations int
	// timings are the full STA digests of the baseline and refined
	// sign-offs (traced runs only).
	timings [2]string
}

func (a *flowOut) compare(b *flowOut) error {
	if err := check("baseline sign-off", b.baseline, a.baseline); err != nil {
		return err
	}
	if err := check("baseline labels", b.labels, a.labels); err != nil {
		return err
	}
	if err := check("augment labels", fmt.Sprint(b.augLabels), fmt.Sprint(a.augLabels)); err != nil {
		return err
	}
	if err := check("model hash", b.modelHash, a.modelHash); err != nil {
		return err
	}
	if math.Float64bits(a.r2Ends) != math.Float64bits(b.r2Ends) || math.Float64bits(a.r2All) != math.Float64bits(b.r2All) {
		return fmt.Errorf("evaluator R² differs: %v/%v vs %v/%v", b.r2All, b.r2Ends, a.r2All, a.r2Ends)
	}
	if err := check("refined forest", b.refined, a.refined); err != nil {
		return err
	}
	return check("refined sign-off", reportDigest(b.refinedRep), reportDigest(a.refinedRep))
}

func runFlowAPU(e *env) (*outcome, error) {
	o := newOutcome()
	// Set-up: generate the input design the flow will synthesize and
	// digest it, several times; generation must repeat. The flow
	// regenerates the design itself, as the CLI does.
	var designSum string
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		d, err := tracedGenerate(nil, 0, "", flowDesign)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := designio.WriteJSON(&b, d); err != nil {
			return nil, err
		}
		h := sha256.Sum256(b.Bytes())
		o.setup = append(o.setup, time.Since(t0).Seconds())
		sum := hex.EncodeToString(h[:8])
		if designSum != "" && sum != designSum {
			return nil, fmt.Errorf("design generation does not repeat: %s vs %s", sum, designSum)
		}
		designSum = sum
	}
	o.record["design_digest"] = designSum

	p0 := sampleProc()
	t0 := time.Now()
	out, smp, forest, err := cliFlow(e.seed)
	lat := time.Since(t0).Seconds()
	p1 := sampleProc()
	if err != nil {
		o.t.op(err)
		return o, nil
	}
	o.lat = []float64{lat}
	o.window = e.seconds.Seconds()
	o.work = inWindow(t0, t0.Add(time.Duration(lat*float64(time.Second))), t0, t0.Add(e.seconds))
	o.wns, o.tns = -out.refinedRep.WNS, -out.refinedRep.TNS

	// The sign-off rows must repeat: re-run both sign-offs through
	// flow.SignoffTiming and compare bit for bit.
	refBase, refBaseTiming, err := flow.SignoffTiming(smp.Prepared, smp.Prepared.Forest)
	if err == nil {
		err = check("baseline sign-off repeat", reportDigest(refBase), out.baseline)
	}
	if err == nil {
		err = check("baseline labels repeat", labelDigest(gnn.Labels(refBaseTiming)), out.labels)
	}
	var refRefined *flow.Report
	var refRefinedTiming *sta.Result
	if err == nil {
		refRefined, refRefinedTiming, err = flow.SignoffTiming(smp.Prepared, forest)
	}
	if err == nil {
		err = check("refined sign-off repeat", reportDigest(refRefined), reportDigest(out.refinedRep))
	}
	o.t.op(err)
	o.record["model_hash"] = out.modelHash
	o.record["baseline_wns_ns"] = out.baseRep.WNS
	o.record["baseline_tns_ns"] = out.baseRep.TNS
	o.record["refined_wns_ns"] = out.refinedRep.WNS
	o.record["refined_tns_ns"] = out.refinedRep.TNS
	o.record["r2_ends"] = out.r2Ends
	o.record["refine_iterations"] = out.iterations
	if !e.trace || err != nil {
		return o, nil
	}

	// Traced run: the same flow with every layer called one by one.
	procLayers(o, p0, p1)
	rec := newRecorder()
	t1 := time.Now()
	tout, err := tracedFlow(rec, e.seed)
	tracedWall := time.Since(t1).Seconds()
	if err == nil {
		err = out.compare(tout)
	}
	if err == nil {
		// The composed sign-offs must equal flow.SignoffTiming's full
		// STA annotation, not only its report columns.
		err = check("composed baseline timing", tout.timings[0], timingDigest(refBaseTiming))
	}
	if err == nil {
		err = check("composed refined timing", tout.timings[1], timingDigest(refRefinedTiming))
	}
	o.t.op(err)
	spanLayers(o, rec)
	o.layer["bench.trace_overhead_ratio"] = (tracedWall - lat) / lat
	o.layer["train.r2_ends"] = out.r2Ends
	o.layer["flow.wns_gain_ns"] = out.refinedRep.WNS - out.baseRep.WNS
	o.layer["flow.tns_gain_ns"] = out.refinedRep.TNS - out.baseRep.TNS
	o.record["untraced_flow_s"] = lat
	o.record["traced_flow_s"] = tracedWall
	return o, nil
}

// cliFlow is cmd/tsteiner's default GNN path, call for call.
func cliFlow(seed int64) (*flowOut, *train.Sample, *rsmt.Forest, error) {
	fcfg := flow.DefaultConfig()
	fcfg.Workers = workers
	smp, err := train.BuildSample(flowDesign, 1.0, true, fcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	samples := []*train.Sample{smp}
	aug, err := train.Augment(smp, flowAugment, augmentDist, seed, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	samples = append(samples, aug...)
	m := gnn.NewModel(gnn.DefaultConfig(), seed)
	opt := train.DefaultOptions()
	opt.Epochs = flowEpochs
	opt.Seed = seed
	opt.Workers = workers
	if _, err := train.Train(m, samples, opt); err != nil {
		return nil, nil, nil, err
	}
	sc, err := train.Evaluate(m, smp)
	if err != nil {
		return nil, nil, nil, err
	}
	copt := core.DefaultOptions()
	copt.N = flowIters
	ref, err := core.NewRefiner(m, smp.Batch, smp.Prepared, copt)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := ref.RefineRounds(1)
	if err != nil {
		return nil, nil, nil, err
	}
	rep, err := flow.Signoff(smp.Prepared, res.Forest)
	if err != nil {
		return nil, nil, nil, err
	}
	out := &flowOut{
		baseline:   reportDigest(smp.Baseline),
		labels:     labelDigest(smp.Labels),
		modelHash:  m.Hash(),
		r2All:      sc.ArrivalAll,
		r2Ends:     sc.ArrivalEnds,
		refinedRep: rep,
		baseRep:    smp.Baseline,
		iterations: res.Iterations,
	}
	for _, a := range aug {
		out.augLabels = append(out.augLabels, labelDigest(a.Labels))
	}
	if out.refined, err = forestDigest(res.Forest); err != nil {
		return nil, nil, nil, err
	}
	return out, smp, res.Forest, nil
}

// tracedFlow runs cliFlow's pipeline with each layer called separately
// inside its own span.
func tracedFlow(rec *recorder, seed int64) (*flowOut, error) {
	const req = "flow"
	root := rec.start("bench.flow", 0, req)
	defer rec.end(root)
	cfg := flow.DefaultConfig()
	cfg.Workers = workers

	d, err := tracedGenerate(rec, root, req, flowDesign)
	if err != nil {
		return nil, err
	}
	p, err := tracedPrepare(rec, root, req, d, cfg, true)
	if err != nil {
		return nil, err
	}
	baseRep, baseTiming, err := tracedSignoff(rec, root, req, p, p.Forest, true)
	if err != nil {
		return nil, err
	}
	var b *gnn.Batch
	if err := rec.call("gnn.batch", root, req, func(int) error {
		b, err = gnn.NewBatch(p.Design, p.Forest)
		return err
	}); err != nil {
		return nil, err
	}
	smp := &train.Sample{
		Name: flowDesign, Train: true, Prepared: p, Batch: b, Forest: p.Forest,
		Labels: gnn.Labels(baseTiming), Baseline: baseRep,
	}

	// train.Augment: perturbed forests drawn serially from one seeded
	// stream, signed off on the worker pool.
	var aug []*train.Sample
	if err := rec.call("train.augment", root, req, func(id int) error {
		rng := rand.New(rand.NewSource(seed))
		forests := make([]*rsmt.Forest, flowAugment)
		for k := range forests {
			f := p.Forest.Clone()
			rsmt.Perturb(f, rng, augmentDist, p.Design.Die)
			forests[k] = f
		}
		aug, err = par.Map(workers, forests, func(k int, f *rsmt.Forest) (*train.Sample, error) {
			_, timing, err := tracedSignoff(rec, id, fmt.Sprintf("%s/augment-%d", req, k), p, f, false)
			if err != nil {
				return nil, err
			}
			return &train.Sample{
				Name: fmt.Sprintf("%s~%d", flowDesign, k), Train: true, Prepared: p, Batch: b,
				Forest: f, Labels: gnn.Labels(timing),
			}, nil
		})
		return err
	}); err != nil {
		return nil, err
	}

	m := gnn.NewModel(gnn.DefaultConfig(), seed)
	opt := train.DefaultOptions()
	opt.Epochs = flowEpochs
	opt.Seed = seed
	opt.Workers = workers
	if err := rec.call("train.train", root, req, func(id int) error {
		last := time.Now()
		opt.Verbose = func(int, float64) {
			now := time.Now()
			rec.add("train.epoch", id, req, last, now)
			last = now
		}
		m0 := mallocs()
		_, err := train.Train(m, append([]*train.Sample{smp}, aug...), opt)
		rec.count("train.allocs_per_epoch", float64(mallocs()-m0)/flowEpochs)
		return err
	}); err != nil {
		return nil, err
	}
	var sc train.Scores
	if err := rec.call("train.evaluate", root, req, func(int) error {
		sc, err = train.Evaluate(m, smp)
		return err
	}); err != nil {
		return nil, err
	}
	var res *core.Result
	if err := rec.call("core.refine", root, req, func(int) error {
		copt := core.DefaultOptions()
		copt.N = flowIters
		m0 := mallocs()
		ref, err := core.NewRefiner(m, b, p, copt)
		if err != nil {
			return err
		}
		if res, err = ref.RefineRounds(1); err != nil {
			return err
		}
		countRefine(rec, res, mallocs()-m0)
		return nil
	}); err != nil {
		return nil, err
	}
	rep, timing, err := tracedSignoff(rec, root, req, p, res.Forest, true)
	if err != nil {
		return nil, err
	}

	out := &flowOut{
		baseline:   reportDigest(baseRep),
		labels:     labelDigest(smp.Labels),
		modelHash:  m.Hash(),
		r2All:      sc.ArrivalAll,
		r2Ends:     sc.ArrivalEnds,
		refinedRep: rep,
		baseRep:    baseRep,
		iterations: res.Iterations,
		timings:    [2]string{timingDigest(baseTiming), timingDigest(timing)},
	}
	for _, a := range aug {
		out.augLabels = append(out.augLabels, labelDigest(a.Labels))
	}
	if out.refined, err = forestDigest(res.Forest); err != nil {
		return nil, err
	}
	return out, nil
}

// countRefine records a GNN refinement's iteration, acceptance and
// allocation counters.
func countRefine(rec *recorder, res *core.Result, allocs uint64) {
	acc := 0
	for _, h := range res.History {
		if h.Accepted {
			acc++
		}
	}
	rec.count("core.iterations", float64(res.Iterations))
	rec.count("core.accepted", float64(acc))
	if res.Iterations > 0 {
		rec.count("core.allocs_per_iter", float64(allocs)/float64(res.Iterations))
	}
}
