// Command perfbench is the repository's end-to-end benchmark. It drives
// TSteiner in-process through the entry points the product uses — the
// cmd/tsteiner call sequence and the tsteinerd HTTP API on a loopback
// port — and prints one JSON result line.
//
// Usage (from the repository root, normally through run.sh, which
// builds it first):
//
//	perfbench --workload flow-apu|signoff-apu|daemon-usb --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run, whose
// spans the benchmark records around each call into a layer. The line
// before it is a provenance record. See README.md for the workloads and
// what every metric means.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workers bounds every parallel fan-out, client pool and job pool of
// the benchmark; it matches the 2-CPU host the baseline was recorded on.
const workers = 2

// workload describes one benchmark workload.
type workload struct {
	name string
	// heldOut is a seed kept out of tuning, for checking later claims.
	heldOut int64
	run     func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"flow-apu", 9101, runFlowAPU},
	{"signoff-apu", 9202, runSignoffAPU},
	{"daemon-usb", 9303, runDaemonUSB},
}

// env is one run's settings.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string // scratch space inside the checkout, removed at exit
}

// outcome is what a workload measured.
type outcome struct {
	setup    []float64 // seconds per set-up repetition
	lat      []float64 // seconds per operation
	work     float64   // successful operations completed inside the window, counting partly finished ones by the share inside it
	window   float64   // measurement window (seconds)
	wns, tns float64   // sign-off violation magnitudes of the outputs (ns)
	t        tally
	rssP90   float64            // MB, filled by run
	layer    map[string]float64 // per-layer metrics (traced runs)
	record   map[string]any     // extra provenance and bases
}

func newOutcome() *outcome {
	return &outcome{layer: map[string]float64{}, record: map[string]any{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: flow-apu | signoff-apu | daemon-usb")
		seed    = flag.Int64("seed", 1, "workload seed; the program receives only inputs generated from it")
		seconds = flag.Int("seconds", 10, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory (removed at exit)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, workdir string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad --seconds %d or --trace %d", seconds, trace)
	}
	dir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1, workdir: dir}
	stopRSS := sampleRSS(50 * time.Millisecond)
	steal0, t0 := stealSeconds(), time.Now()
	o, err := wl.run(e)
	steal1, wall := stealSeconds(), time.Since(t0).Seconds()
	rss := stopRSS()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.rssP90 = percentile(rss, 90)
	o.record["rss_samples"] = len(rss)
	o.record["peak_rss_mb"] = peakRSSMB()
	// CPU time the hypervisor gave to other guests while this run
	// wanted it: a run with a large share measured a slower host.
	o.record["host_steal_share"] = (steal1 - steal0) / (wall * float64(runtime.NumCPU()))
	if o.t.attempted == 0 {
		return fmt.Errorf("%s: no operation completed", name)
	}
	res := result{
		Correct:   o.t.failed == 0,
		Attempted: o.t.attempted,
		Failed:    o.t.failed,
		Metrics:   map[string]metricValue{},
	}
	specs := endToEnd
	vals := o.endToEnd()
	if e.trace {
		specs, vals = perLayer, o.layer
	}
	for _, s := range specs {
		v := vals[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is not finite", name, s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	rec := provenance(wl, e)
	for k, v := range o.record {
		rec[k] = v
	}
	rec["failures"] = o.t.reasons
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd turns an outcome into the end-to-end metrics.
func (o *outcome) endToEnd() map[string]float64 {
	tv, pct, ok := tail(o.lat, tailBeyond)
	o.record["op_samples"] = len(o.lat)
	if ok {
		o.record["op_tail_percentile"] = pct
	} else {
		o.record["op_tail_percentile"] = fmt.Sprintf("median (fewer than %d samples)", 2*tailBeyond+1)
	}
	o.record["setup_samples"] = len(o.setup)
	ops := 0.0
	if o.window > 0 {
		ops = o.work / o.window
	}
	return map[string]float64{
		"setup_s":        median(o.setup),
		"op_p50_s":       median(o.lat),
		"op_tail_s":      tv,
		"ops_per_s":      ops,
		"ok_ratio":       o.t.okRatio(),
		"rss_p90_mb":     o.rssP90,
		"signoff_wns_ns": o.wns,
		"signoff_tns_ns": o.tns,
	}
}

// provenance stamps what a recorded result needs to be reproduced.
func provenance(wl *workload, e *env) map[string]any {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":        wl.name,
		"seed":            e.seed,
		"held_out_seed":   wl.heldOut,
		"seconds":         e.seconds.Seconds(),
		"trace":           e.trace,
		"commit":          commit,
		"source_sha256":   sourceDigest("."),
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"workers":         workers,
		"recorded_at_utc": time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result from a checkout without git history still names its code.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sampleRSS samples the process's resident set size (MB) every period
// until the returned stop function is called; stop waits for the sampler
// to exit and returns the samples.
func sampleRSS(period time.Duration) (stop func() []float64) {
	page := float64(os.Getpagesize()) / (1 << 20)
	read := func() (float64, bool) {
		b, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			return 0, false
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			return 0, false
		}
		pages, err := strconv.ParseFloat(f[1], 64)
		return pages * page, err == nil
	}
	var samples []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			if v, ok := read(); ok {
				samples = append(samples, v)
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// inWindow returns the share of the operation [start, end] that lies
// inside the window [from, to].
func inWindow(start, end, from, to time.Time) float64 {
	d := end.Sub(start)
	if d <= 0 {
		return 0
	}
	if start.Before(from) {
		start = from
	}
	if end.After(to) {
		end = to
	}
	if !end.After(start) {
		return 0
	}
	return float64(end.Sub(start)) / float64(d)
}

// stealSeconds reads the host's cumulative steal time from /proc/stat
// (0 where it is not available).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	jiffies, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return jiffies / 100 // USER_HZ
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSample is a snapshot of process-wide counters, taken around an
// untraced phase for the proc.* and runtime.* layer metrics.
type procSample struct {
	at      time.Time
	cpu     float64
	alloc   uint64
	numGC   uint32
	mallocs uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{at: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc, numGC: ms.NumGC, mallocs: ms.Mallocs}
}

// procLayers fills the process-wide layer metrics for the phase between
// two samples.
func procLayers(o *outcome, a, b procSample) {
	wall := b.at.Sub(a.at).Seconds()
	o.layer["proc.cpu_util"] = (b.cpu - a.cpu) / (wall * float64(runtime.NumCPU()))
	o.layer["runtime.alloc_mb"] = float64(b.alloc-a.alloc) / (1 << 20)
	o.layer["runtime.gc_cycles"] = float64(b.numGC - a.numGC)
	o.record["proc_phase_wall_s"] = wall
}

// spanLayers fills the per-layer metrics derived from spans and
// per-call counters: the median duration of one call per layer, call
// counts, and the medians of the counters.
func spanLayers(o *outcome, rec *recorder) {
	spans := rec.snapshot()
	for _, n := range []string{
		"synth.generate", "place.place", "rsmt.build", "route.edgeshift", "flow.prepare",
		"route.route", "drc.run", "rc.extract", "sta.run", "flow.signoff", "gnn.batch",
		"train.augment", "train.train", "train.epoch", "train.evaluate", "core.refine",
		"shard.refine", "designio.decode", "serve.submit",
	} {
		if d := durations(spans, n); len(d) > 0 {
			o.layer[n+"_s"] = median(d)
		}
	}
	for _, kind := range []string{"refine", "shard", "signoff"} {
		if d := durations(spans, "serve.run."+kind); len(d) > 0 {
			o.layer["serve.run_s."+kind] = median(d)
		}
	}
	o.layer["route.calls"] = float64(len(durations(spans, "route.route")))
	for metric, counter := range map[string]string{
		"route.allocs_per_call":  "route.allocs",
		"route.overflow":         "route.overflow",
		"sta.allocs_per_call":    "sta.allocs",
		"train.allocs_per_epoch": "train.allocs_per_epoch",
		"train.r2_ends":          "train.r2_ends",
		"core.iterations":        "core.iterations",
		"core.allocs_per_iter":   "core.allocs_per_iter",
		"shard.rounds":           "shard.rounds",
		"shard.retimed_nets":     "shard.retimed_nets",
	} {
		if xs := rec.counts[counter]; len(xs) > 0 {
			o.layer[metric] = median(xs)
		}
	}
	ratio := func(num, den string) float64 {
		var a, b float64
		for _, x := range rec.counts[num] {
			a += x
		}
		for _, x := range rec.counts[den] {
			b += x
		}
		if b == 0 {
			return 0
		}
		return a / b
	}
	o.layer["core.accept_ratio"] = ratio("core.accepted", "core.iterations")
	o.layer["shard.accept_ratio"] = ratio("shard.accepted", "shard.rounds")
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	var wall, cov time.Duration
	for _, r := range roots {
		wall += r.dur()
		cov += covered(spans, r)
	}
	if wall > 0 {
		o.layer["bench.unattributed_ratio"] = float64(wall-cov) / float64(wall)
	}
	o.record["spans"] = len(spans)
	o.record["bases"] = map[string]string{
		"core.accept_ratio":          "accepted iterations / iterations, summed over traced refine calls",
		"shard.accept_ratio":         "accepted rounds / rounds, summed over traced sharded refines",
		"bench.unattributed_ratio":   "root-span wall time not covered by direct child spans / root-span wall time",
		"bench.trace_overhead_ratio": "(traced wall - untraced wall) / untraced wall, same work",
		"proc.cpu_util":              "CPU seconds / (wall seconds x NumCPU), untraced phase",
		"par.speedup":                "traced serial sweep wall / traced 2-worker sweep wall, same sign-offs",
		"serve.cache_hit_ratio":      "model cache hits / (hits + misses) after set-up",
	}
}
