package main

import (
	"fmt"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run reports, in print order.
// Every workload reports every one of them; see README.md for what each
// means on each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"ops_per_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"rss_p90_mb", "MB"},
	{"signoff_wns_ns", "ns"},
	{"signoff_tns_ns", "ns"},
}

// perLayer lists the metrics a traced run reports. A layer the workload
// does not call reports 0.
var perLayer = []metricSpec{
	{"synth.generate_s", "s"},
	{"place.place_s", "s"},
	{"rsmt.build_s", "s"},
	{"route.edgeshift_s", "s"},
	{"flow.prepare_s", "s"},
	{"route.route_s", "s"},
	{"route.calls", "count"},
	{"route.allocs_per_call", "count"},
	{"route.overflow", "count"},
	{"drc.run_s", "s"},
	{"rc.extract_s", "s"},
	{"sta.run_s", "s"},
	{"sta.allocs_per_call", "count"},
	{"flow.signoff_s", "s"},
	{"gnn.batch_s", "s"},
	{"train.augment_s", "s"},
	{"train.train_s", "s"},
	{"train.epoch_s", "s"},
	{"train.allocs_per_epoch", "count"},
	{"train.evaluate_s", "s"},
	{"train.r2_ends", "1"},
	{"core.refine_s", "s"},
	{"core.iterations", "count"},
	{"core.accept_ratio", "ratio"},
	{"core.allocs_per_iter", "count"},
	{"shard.refine_s", "s"},
	{"shard.rounds", "count"},
	{"shard.accept_ratio", "ratio"},
	{"shard.retimed_nets", "count"},
	{"flow.wns_gain_ns", "ns"},
	{"flow.tns_gain_ns", "ns"},
	{"designio.decode_s", "s"},
	{"serve.submit_s", "s"},
	{"serve.run_s.refine", "s"},
	{"serve.run_s.shard", "s"},
	{"serve.run_s.signoff", "s"},
	{"serve.wait_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.spool_bytes_per_job", "bytes"},
	{"par.speedup", "ratio"},
	{"proc.cpu_util", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"bench.unattributed_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least beyond
// samples above it, and that percentile (the sample's rank over n, in
// percent). When that percentile would not lie above the median (fewer
// than 2·beyond+1 samples) it returns the median and ok=false, so the
// caller can say so in the record.
func tail(xs []float64, beyond int) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 2*beyond+1 {
		return median(xs), 50, false
	}
	s := sorted(xs)
	idx := n - 1 - beyond
	return s[idx], 100 * float64(idx+1) / float64(n), true
}

// tally counts attempted operations and the ones that failed, either by
// returning an error or by failing an output check. Its methods are not
// safe for concurrent use; callers hold their own lock.
type tally struct {
	attempted int
	failed    int
	reasons   []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.note(err)
	}
}

// fail marks an already-counted operation as failed (a later check
// found its output wrong). The failed count never exceeds the attempted
// count.
func (t *tally) fail(err error) {
	if t.failed < t.attempted {
		t.failed++
	}
	t.note(err)
}

func (t *tally) note(err error) {
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, err.Error())
	}
}

// okRatio is the share of attempted operations that succeeded and passed
// every check.
func (t *tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// check returns an error naming what mismatched when got != want.
func check(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: got %s, want %s", what, got, want)
	}
	return nil
}
