package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tsteiner/internal/flow"
	"tsteiner/internal/par"
	"tsteiner/internal/rsmt"
)

// The signoff-apu workload repeats flow.SignoffTiming on APU forests
// perturbed from the seed with train.Augment's radius, two at a time
// through internal/par as Augment runs them. No training, no refinement.
const (
	signoffForests = 12 // distinct perturbed forests, cycled; more average out per-input routing cost
	signoffSetups  = 5
	maxOps         = 1 << 20
)

// signoffInputs is the prepared design and the seeded forests.
type signoffInputs struct {
	p       *flow.Prepared
	forests []*rsmt.Forest
	sums    []string // forest digests
}

func prepareSignoff(seed int64) (*signoffInputs, error) {
	cfg := flow.DefaultConfig()
	cfg.Workers = workers
	p, err := flow.PrepareBenchmark(flowDesign, 1.0, cfg)
	if err != nil {
		return nil, err
	}
	return perturbInputs(p, seed)
}

func perturbInputs(p *flow.Prepared, seed int64) (*signoffInputs, error) {
	in := &signoffInputs{p: p}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < signoffForests; k++ {
		f := p.Forest.Clone()
		rsmt.Perturb(f, rng, augmentDist, p.Design.Die)
		sum, err := forestDigest(f)
		if err != nil {
			return nil, err
		}
		in.forests = append(in.forests, f)
		in.sums = append(in.sums, sum)
	}
	return in, nil
}

// signoffLedger collects sign-off latencies and checks that each
// forest's report repeats bit for bit.
type signoffLedger struct {
	mu  sync.Mutex
	byK map[int][]float64
	ref map[int]string
	wns map[int]float64
	tns map[int]float64
	lat []float64
	ops [][2]time.Time // start and end of each successful sign-off
	t   *tally
}

func newLedger(t *tally) *signoffLedger {
	return &signoffLedger{ref: map[int]string{}, wns: map[int]float64{}, tns: map[int]float64{}, t: t}
}

// record files one sign-off of forest k.
func (l *signoffLedger) record(k int, rep *flow.Report, digest string, start time.Time, err error) {
	end := time.Now()
	lat := end.Sub(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lat = append(l.lat, lat.Seconds())
	if err == nil {
		l.ops = append(l.ops, [2]time.Time{start, end})
	}
	if err == nil {
		if prev, ok := l.ref[k]; ok {
			err = check(fmt.Sprintf("forest %d report digest", k), digest, prev)
		} else {
			l.ref[k] = digest
			l.wns[k], l.tns[k] = -rep.WNS, -rep.TNS
		}
	}
	l.t.op(err)
}

// sweep signs off n forests (cycled) on the worker pool, skipping work
// once stop reports true; it returns when every started sign-off ended.
func sweep(in *signoffInputs, w, n int, l *signoffLedger, stop func() bool,
	signoff func(i, k int) (*flow.Report, string, error)) error {
	return par.ForEach(w, n, func(i int) error {
		if stop() {
			return nil
		}
		k := i % len(in.forests)
		t0 := time.Now()
		rep, digest, err := signoff(i, k)
		l.record(k, rep, digest, t0, err)
		return nil
	})
}

func productSignoff(in *signoffInputs) func(i, k int) (*flow.Report, string, error) {
	return func(_, k int) (*flow.Report, string, error) {
		rep, timing, err := flow.SignoffTiming(in.p, in.forests[k])
		if err != nil {
			return nil, "", err
		}
		return rep, reportDigest(rep) + "/" + timingDigest(timing), nil
	}
}

func runSignoffAPU(e *env) (*outcome, error) {
	o := newOutcome()
	var in *signoffInputs
	for i := 0; i < signoffSetups; i++ {
		t0 := time.Now()
		next, err := prepareSignoff(e.seed)
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		if in != nil && fmt.Sprint(next.sums) != fmt.Sprint(in.sums) {
			return nil, fmt.Errorf("set-up does not repeat: forests %v vs %v", next.sums, in.sums)
		}
		in = next
	}
	o.record["forest_digests"] = in.sums

	l := newLedger(&o.t)
	if !e.trace {
		start := time.Now()
		deadline := start.Add(e.seconds)
		if err := sweep(in, workers, maxOps, l, func() bool { return time.Now().After(deadline) }, productSignoff(in)); err != nil {
			return nil, err
		}
		o.lat, o.window = l.lat, e.seconds.Seconds()
		for _, op := range l.ops {
			o.work += inWindow(op[0], op[1], start, deadline)
		}
		for k := range l.wns {
			o.wns += l.wns[k] / float64(len(l.wns))
			o.tns += l.tns[k] / float64(len(l.tns))
		}
		o.record["forests_signed_off"] = len(l.wns)
		return o, nil
	}

	// Traced run: a fixed sweep of one sign-off per forest, untraced,
	// then the same sweep with the layers called one by one on two
	// workers and on one; every traced sign-off must repeat the untraced
	// one of its forest.
	n := signoffForests
	never := func() bool { return false }
	p0 := sampleProc()
	t0 := time.Now()
	if err := sweep(in, workers, n, l, never, productSignoff(in)); err != nil {
		return nil, err
	}
	untraced := time.Since(t0).Seconds()
	procLayers(o, p0, sampleProc())

	rec := newRecorder()
	// The traced preparation must rebuild the same forests.
	err := rec.call("bench.prepare", 0, "prepare", func(id int) error {
		d, err := tracedGenerate(rec, id, "prepare", flowDesign)
		if err != nil {
			return err
		}
		cfg := flow.DefaultConfig()
		cfg.Workers = workers
		p, err := tracedPrepare(rec, id, "prepare", d, cfg, true)
		if err != nil {
			return err
		}
		again, err := perturbInputs(p, e.seed)
		if err != nil {
			return err
		}
		return check("traced preparation forests", fmt.Sprint(again.sums), fmt.Sprint(in.sums))
	})
	o.t.op(err)

	traced := func(root int, countAllocs bool) func(i, k int) (*flow.Report, string, error) {
		return func(i, k int) (*flow.Report, string, error) {
			rep, timing, err := tracedSignoff(rec, root, fmt.Sprintf("signoff-%d", i), in.p, in.forests[k], countAllocs)
			if err != nil {
				return nil, "", err
			}
			return rep, reportDigest(rep) + "/" + timingDigest(timing), nil
		}
	}
	walls := map[string]float64{}
	for _, s := range []struct {
		name string
		w    int
	}{{"bench.sweep", workers}, {"bench.sweep_serial", 1}} {
		t0 := time.Now()
		root := rec.start(s.name, 0, s.name)
		err := sweep(in, s.w, n, l, never, traced(root, s.w == 1))
		rec.end(root)
		walls[s.name] = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
	}
	spanLayers(o, rec)
	o.layer["par.speedup"] = walls["bench.sweep_serial"] / walls["bench.sweep"]
	o.layer["bench.trace_overhead_ratio"] = (walls["bench.sweep"] - untraced) / untraced
	o.record["untraced_sweep_s"] = untraced
	o.record["traced_sweep_s"] = walls["bench.sweep"]
	o.record["traced_serial_sweep_s"] = walls["bench.sweep_serial"]
	o.record["sweep_signoffs"] = n
	return o, nil
}
