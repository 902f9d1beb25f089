package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsteiner/internal/core"
	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/obs"
	"tsteiner/internal/par"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/serve"
	"tsteiner/internal/shard"
	"tsteiner/internal/sta"
	"tsteiner/internal/train"
)

// The daemon-usb workload serves a seeded job mix on usb_cdc_core from
// an in-process tsteinerd to two closed-loop clients. GNN refine jobs
// share the default model family (seed 2023, 60 epochs, 2 augment
// variants), which a cold train job builds during set-up, so every
// measured GNN job reads the model cache.
const (
	daemonDesign = "usb_cdc_core"
	jobShards    = 4
	// familySeed etc. are the job defaults serve.JobRequest.Normalize
	// fills in; the family hash of the cache key depends on them.
	familySeed    = 2023
	familyEpochs  = 60
	familyAugment = 2
	// maxJobs bounds the drawn job sequence; a run completes far fewer.
	maxJobs = 4096
)

// jobSpec is one job of the mix; jobs with equal specs must return
// byte-identical results.
type jobSpec struct {
	Kind   string // serve.KindRefine or serve.KindSignoff
	Iters  int
	Shards int
}

// label names the spec's class: refine (GNN), shard or signoff.
func (s jobSpec) label() string {
	switch {
	case s.Kind == serve.KindSignoff:
		return "signoff"
	case s.Shards > 0:
		return "shard"
	}
	return "refine"
}

func (s jobSpec) key() string { return fmt.Sprintf("%s-i%d", s.label(), s.Iters) }

// mixBlock is one block of the job mix: five GNN refine jobs with the
// default iteration budget, two sharded refine jobs (4 and 8 rounds) and
// one sign-off. Every
// block holds the same jobs; the seed only orders them, so the latency
// distribution does not depend on the seed. GNN refine jobs are the
// slowest class and more than half of the mix, so the median job falls
// inside that class rather than on a boundary between classes.
var mixBlock = []jobSpec{
	{serve.KindRefine, 25, 0}, {serve.KindRefine, 25, 0}, {serve.KindRefine, 25, 0},
	{serve.KindRefine, 25, 0}, {serve.KindRefine, 25, 0},
	{serve.KindRefine, 4, jobShards}, {serve.KindRefine, 8, jobShards},
	{serve.KindSignoff, 0, 0},
}

// jobMix draws n jobs: whole blocks, each shuffled by the seed.
func jobMix(seed int64, n int) []jobSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []jobSpec
	for len(out) < n {
		blk := append([]jobSpec(nil), mixBlock...)
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		out = append(out, blk...)
	}
	return out[:n]
}

func (s jobSpec) request(id string, design []byte) *serve.JobRequest {
	return &serve.JobRequest{ID: id, Kind: s.Kind, Design: design, Iters: s.Iters, Shards: s.Shards, Workers: 1}
}

// jobRun is one served job.
type jobRun struct {
	idx     int
	spec    jobSpec
	id      string
	lat     float64
	start   time.Time
	end     time.Time
	result  *serve.JobResult
	resJSON string // result bytes with the ID cleared
	err     error
}

// resultBytes is a JobResult's JSON with the job ID cleared, so jobs of
// one spec compare byte for byte.
func resultBytes(r *serve.JobResult) (string, error) {
	c := *r
	c.ID = ""
	b, err := json.Marshal(&c)
	return string(b), err
}

// daemon is the in-process tsteinerd and its inputs.
type daemon struct {
	srv    *serve.Server
	sink   *obs.Sink
	spool  string
	design []byte
	url    string
}

func startDaemon(dir string) (*daemon, error) {
	cfg := flow.DefaultConfig()
	cfg.Workers = workers
	p, err := flow.PrepareBenchmark(daemonDesign, 1.0, cfg)
	if err != nil {
		return nil, err
	}
	// The placed design, as `tsteiner -save-design` writes it.
	var b bytes.Buffer
	if err := designio.WriteJSON(&b, p.Design); err != nil {
		return nil, err
	}
	dm := &daemon{design: b.Bytes(), spool: filepath.Join(dir, "spool")}
	// As runDaemon in cmd/tsteiner: the daemon always aggregates.
	dm.sink = obs.New(nil)
	dm.sink.EnableRing(obs.DefaultRingSize)
	dm.srv, err = serve.New(serve.Options{SpoolDir: dm.spool, JobWorkers: workers, Obs: dm.sink})
	if err != nil {
		return nil, err
	}
	if err := dm.srv.Serve("127.0.0.1:0"); err != nil {
		dm.srv.Close()
		return nil, err
	}
	dm.url = dm.srv.URL()
	return dm, nil
}

// submitWait runs one job through the HTTP API and returns its status.
func submitWait(c *serve.Client, req *serve.JobRequest, rec *recorder, root int) (*serve.JobStatus, error) {
	var st *serve.JobStatus
	if err := rec.call("serve.submit", root, req.ID, func(int) error {
		_, err := c.Submit(req)
		return err
	}); err != nil {
		return nil, err
	}
	err := rec.call("serve.poll", root, req.ID, func(int) error {
		var err error
		st, err = c.Wait(req.ID, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	if st.State != serve.StateDone || st.Result == nil {
		return nil, fmt.Errorf("job %s ended %s: %s", req.ID, st.State, st.Error)
	}
	return st, nil
}

// stream runs specs through two closed-loop clients until every spec ran
// or stop reports true; each client submits its next job only after the
// previous one finished. It returns the runs in spec order.
func (dm *daemon) stream(specs []jobSpec, prefix string, seed int64, stop func() bool, rec *recorder) []jobRun {
	var (
		next atomic.Int64
		mu   sync.Mutex
		runs = make([]jobRun, 0, len(specs))
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for cl := 0; cl < workers; cl++ {
		c := &serve.Client{Base: dm.url, JitterSeed: seed + int64(cl)}
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) || stop() {
					return
				}
				s := specs[i]
				r := jobRun{idx: i, spec: s, id: fmt.Sprintf("%s%05d-%s", prefix, i, s.key())}
				root := rec.start("bench.job", 0, r.id)
				r.start = time.Now()
				st, err := submitWait(c, s.request(r.id, dm.design), rec, root)
				r.end = time.Now()
				rec.end(root)
				r.lat = r.end.Sub(r.start).Seconds()
				if err == nil {
					r.result = st.Result
					r.resJSON, err = resultBytes(st.Result)
				}
				r.err = err
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(runs, func(a, b int) bool { return runs[a].idx < runs[b].idx })
	return runs
}

// checkRuns counts every run and checks that jobs of one spec returned
// the same bytes as the first job of that spec seen (refs).
func checkRuns(runs []jobRun, refs map[string]string, t *tally) {
	for _, r := range runs {
		err := r.err
		if err == nil {
			if ref, ok := refs[r.spec.key()]; ok {
				err = check("job "+r.id+" result", r.resJSON, ref)
			} else {
				refs[r.spec.key()] = r.resJSON
			}
		}
		t.op(err)
	}
}

func runDaemonUSB(e *env) (*outcome, error) {
	o := newOutcome()
	t0 := time.Now()
	dm, err := startDaemon(e.workdir)
	if err != nil {
		return nil, err
	}
	defer dm.srv.Close()
	// The cold job: train the family model the GNN refine jobs share.
	cold := &serve.JobRequest{ID: "setup-train", Kind: serve.KindTrain, Design: dm.design, Workers: 1}
	if _, err := submitWait(&serve.Client{Base: dm.url}, cold, nil, 0); err != nil {
		return nil, fmt.Errorf("set-up job: %w", err)
	}
	o.setup = []float64{time.Since(t0).Seconds()}
	hits0, misses0 := cacheCounters(dm.sink)

	specs := jobMix(e.seed, maxJobs)
	refs := map[string]string{}
	p0 := sampleProc()
	start := time.Now()
	deadline := start.Add(e.seconds)
	runs := dm.stream(specs, "j", e.seed, func() bool { return time.Now().After(deadline) }, nil)
	p1 := sampleProc()
	checkRuns(runs, refs, &o.t)
	var nRefined, untracedWall float64
	o.window = e.seconds.Seconds()
	for _, r := range runs {
		o.lat = append(o.lat, r.lat)
		untracedWall = math.Max(untracedWall, r.end.Sub(start).Seconds())
		if r.err == nil {
			o.work += inWindow(r.start, r.end, start, deadline)
			if r.result.Refined != nil {
				o.wns -= r.result.Refined.WNS
				o.tns -= r.result.Refined.TNS
				nRefined++
			}
		}
	}
	if nRefined > 0 {
		o.wns /= nRefined
		o.tns /= nRefined
	}
	bySpec := map[string][]float64{}
	for _, r := range runs {
		bySpec[r.spec.key()] = append(bySpec[r.spec.key()], r.lat)
	}
	specLat := map[string]any{}
	for k, xs := range bySpec {
		specLat[k] = map[string]any{"jobs": len(xs), "p50_s": median(xs)}
	}
	o.record["jobs_by_spec"] = specLat
	o.record["refined_jobs"] = nRefined
	if !e.trace {
		return o, nil
	}

	// Traced run: the same jobs again with spans around each client
	// call, then every distinct spec through serve.Runner.Run and once
	// with its layers called one by one.
	procLayers(o, p0, p1)
	rec := newRecorder()
	again := make([]jobSpec, len(runs))
	for i, r := range runs {
		again[i] = r.spec
	}
	t1 := time.Now()
	truns := dm.stream(again, "t", e.seed, func() bool { return false }, rec)
	tracedWall := time.Since(t1).Seconds()
	checkRuns(truns, refs, &o.t)
	o.layer["bench.trace_overhead_ratio"] = (tracedWall - untracedWall) / untracedWall
	hits1, misses1 := cacheCounters(dm.sink)
	if d := (hits1 - hits0) + (misses1 - misses0); d > 0 {
		o.layer["serve.cache_hit_ratio"] = float64(hits1-hits0) / float64(d)
	}
	if err := dm.srv.Close(); err != nil {
		return nil, err
	}
	bytesPerJob, err := spoolBytesPerJob(dm.spool)
	if err != nil {
		return nil, err
	}
	o.layer["serve.spool_bytes_per_job"] = bytesPerJob

	// Distinct specs in first-seen order, with the HTTP result of each.
	var distinct []jobRun
	seen := map[string]bool{}
	for _, r := range runs {
		if r.err == nil && !seen[r.spec.key()] {
			seen[r.spec.key()] = true
			distinct = append(distinct, r)
		}
	}
	sp, err := serve.OpenSpool(dm.spool)
	if err != nil {
		return nil, err
	}
	// Replay every distinct spec through Runner.Run, two at a time like
	// the daemon's job workers, so the run times carry the same
	// contention as the served jobs; each must return the served bytes.
	const replays = 2
	rn := serve.NewRunner(sp, nil, nil)
	replay := rec.start("bench.replay", 0, "replay")
	var mu sync.Mutex
	err = par.ForEach(workers, len(distinct)*replays, func(i int) error {
		r := distinct[i%len(distinct)]
		req := r.spec.request(fmt.Sprintf("replay%d-%s", i/len(distinct), r.spec.key()), dm.design)
		req.Normalize()
		var res *serve.JobResult
		err := req.Validate()
		if err == nil {
			err = rec.call("serve.run."+r.spec.label(), replay, req.ID, func(int) error {
				res, err = rn.Run(req)
				return err
			})
		}
		var got string
		if err == nil {
			got, err = resultBytes(res)
		}
		if err == nil {
			err = check("Runner.Run result for "+r.spec.key(), got, r.resJSON)
		}
		mu.Lock()
		o.t.op(err)
		mu.Unlock()
		return nil
	})
	rec.end(replay)
	if err != nil {
		return nil, err
	}
	// The daemon writes a per-job trace whose clock starts when
	// Runner.Run opens it; its last event is the final sign-off, so it
	// gives each served job's run time without timing inside the program.
	var waits []float64
	for _, r := range truns {
		if r.err != nil {
			continue
		}
		run, err := traceSeconds(sp.TracePath(r.id))
		if err != nil {
			return nil, err
		}
		waits = append(waits, r.lat-run)
	}
	if len(waits) > 0 {
		o.layer["serve.wait_s"] = median(waits)
	}

	for _, r := range distinct {
		o.t.op(tracedJob(rec, r, dm.design, sp.ModelDir()))
	}
	spanLayers(o, rec)
	var gains, tgains, r2 []float64
	for _, r := range distinct {
		if r.result.Refined != nil {
			gains = append(gains, r.result.Refined.WNS-r.result.Baseline.WNS)
			tgains = append(tgains, r.result.Refined.TNS-r.result.Baseline.TNS)
		}
		if r.spec.label() == "refine" {
			r2 = append(r2, r.result.R2Ends)
		}
	}
	o.layer["flow.wns_gain_ns"] = mean(gains)
	o.layer["flow.tns_gain_ns"] = mean(tgains)
	o.layer["train.r2_ends"] = mean(r2)
	o.record["untraced_stream_s"] = untracedWall
	o.record["traced_stream_s"] = tracedWall
	o.record["distinct_specs"] = len(distinct)
	return o, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// traceSeconds returns the time stamp of the last event in a job's
// NDJSON trace, in seconds since the trace was opened.
func traceSeconds(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var ev struct{ T float64 }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
		return 0, fmt.Errorf("job trace %s: %w", path, err)
	}
	return ev.T / 1000, nil
}

// cacheCounters reads the daemon's model-cache hit and miss counters.
func cacheCounters(s *obs.Sink) (hits, misses int64) {
	for _, c := range s.Snapshot().Counters {
		switch c.Name {
		case "serve.model_cache_hits":
			hits = c.Value
		case "serve.model_cache_misses":
			misses = c.Value
		}
	}
	return hits, misses
}

// spoolBytesPerJob is the spool's job-directory bytes over its job count.
func spoolBytesPerJob(spool string) (float64, error) {
	jobs := filepath.Join(spool, "jobs")
	entries, err := os.ReadDir(jobs)
	if err != nil {
		return 0, err
	}
	var total int64
	err = filepath.WalkDir(jobs, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil || len(entries) == 0 {
		return 0, err
	}
	return float64(total) / float64(len(entries)), nil
}

// tracedJob runs one job's pipeline the way serve.Runner.Run does, with
// each layer called separately, and checks its sign-offs against the
// served result.
func tracedJob(rec *recorder, r jobRun, design []byte, modelDir string) error {
	req := "composed-" + r.spec.key()
	root := rec.start("bench.job", 0, req)
	defer rec.end(root)
	l := lib.Default()
	var d *netlist.Design
	err := rec.call("designio.decode", root, req, func(int) error {
		var err error
		d, err = designio.ReadJSON(bytes.NewReader(design), l)
		return err
	})
	if err != nil {
		return err
	}
	cfg := flow.DefaultConfig()
	cfg.Workers = 1
	p, err := tracedPrepare(rec, root, req, d, cfg, false)
	if err != nil {
		return err
	}
	baseRep, timing, err := tracedSignoff(rec, root, req, p, p.Forest, true)
	if err != nil {
		return err
	}
	want := r.result
	if err := check(req+" baseline", fmt.Sprint(metricsOf(baseRep)), fmt.Sprint(want.Baseline)); err != nil {
		return err
	}
	if r.spec.Kind == serve.KindSignoff {
		return nil
	}
	refined := p.Forest
	if r.spec.Shards > 0 {
		err = rec.call("shard.refine", root, req, func(int) error {
			sopt := shard.DefaultOptions()
			sopt.Shards = r.spec.Shards
			sopt.Workers = 1
			sopt.Rounds = r.spec.Iters
			res, err := shard.Refine(p, sopt)
			if err != nil {
				return err
			}
			rec.count("shard.rounds", float64(res.Rounds))
			rec.count("shard.accepted", float64(res.Accepted))
			rec.count("shard.retimed_nets", float64(res.RetimedNets))
			refined = res.Forest
			return nil
		})
	} else {
		refined, err = tracedGNNRefine(rec, root, req, r, p, baseRep, timing, modelDir)
	}
	if err != nil {
		return err
	}
	rep, _, err := tracedSignoff(rec, root, req, p, refined, true)
	if err != nil {
		return err
	}
	return check(req+" refined", fmt.Sprint(metricsOf(rep)), fmt.Sprint(*want.Refined))
}

// tracedGNNRefine is the GNN branch of a refine job: the family's
// evaluator from the model cache file, evaluation, refinement.
func tracedGNNRefine(rec *recorder, root int, req string, r jobRun, p *flow.Prepared, baseRep *flow.Report, timing *sta.Result, modelDir string) (*rsmt.Forest, error) {
	want := r.result
	var m *gnn.Model
	err := rec.call("gnn.load", root, req, func(int) error {
		var canon bytes.Buffer
		if err := designio.WriteJSON(&canon, p.Design); err != nil {
			return err
		}
		family := serve.FamilyHash(canon.Bytes(), familySeed, familyEpochs, familyAugment)
		var err error
		m, err = gnn.Load(filepath.Join(modelDir, family+".json"))
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := check(req+" model hash", m.Hash(), want.ModelHash); err != nil {
		return nil, err
	}
	smp := &train.Sample{
		Name: p.Design.Name, Train: true, Prepared: p, Forest: p.Forest,
		Labels: gnn.Labels(timing), Baseline: baseRep,
	}
	if err := rec.call("gnn.batch", root, req, func(int) error {
		smp.Batch, err = gnn.NewBatch(p.Design, p.Forest)
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
	if sc.ArrivalEnds != want.R2Ends {
		return nil, fmt.Errorf("%s: evaluator R² %v, served %v", req, sc.ArrivalEnds, want.R2Ends)
	}
	var res *core.Result
	err = rec.call("core.refine", root, req, func(int) error {
		opt := core.DefaultOptions()
		opt.N = r.spec.Iters
		m0 := mallocs()
		ref, err := core.NewRefiner(m, smp.Batch, p, opt)
		if err != nil {
			return err
		}
		if res, err = ref.Refine(); err != nil {
			return err
		}
		countRefine(rec, res, mallocs()-m0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Iterations != want.Iterations {
		return nil, fmt.Errorf("%s: %d iterations, served %d", req, res.Iterations, want.Iterations)
	}
	return res.Forest, nil
}

// metricsOf mirrors serve's projection of a report onto its result
// columns.
func metricsOf(r *flow.Report) serve.Metrics {
	return serve.Metrics{
		WNS: r.WNS, TNS: r.TNS, Vios: r.Vios, WirelengthDBU: r.WirelengthDBU,
		Vias: r.Vias, DRVs: r.DRVs, Overflow: r.Overflow,
	}
}
