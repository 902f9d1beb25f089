package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path"
	"strings"
	"testing"
	"time"
)

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and uses only [A-Za-z0-9_.-], at most 64
// bytes.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 bytes of
// [A-Za-z0-9_/%.-].
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '/' || c == '%' || c == '.' || c == '-':
		default:
			return false
		}
	}
	return true
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "route.route_s", "serve.run_s.refine", "flow-apu", "9lives", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/x", "p99%", "ünï", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}

func TestMetricListsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !validName(m.Name) || !validUnit(m.Unit) {
				t.Errorf("metric %q unit %q breaks the grammar", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, n := range []int{21, 40, 100} {
		xs := seq(n)
		v, pct, ok := tail(xs, tailBeyond)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want exactly %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	// Too few samples for a tail above the median: the median is
	// reported and flagged.
	for _, n := range []int{1, 2, 11, 20} {
		v, _, ok := tail(seq(n), tailBeyond)
		if ok || v != median(seq(n)) {
			t.Errorf("n=%d: tail %v ok=%v, want median %v and ok=false", n, v, ok, median(seq(n)))
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestPercentileAndWindow(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	at := func(s float64) time.Time { return time.Unix(0, 0).Add(time.Duration(s * float64(time.Second))) }
	for _, c := range []struct{ start, end, want float64 }{
		{1, 3, 1},     // inside
		{9, 11, 0.5},  // straddles the end
		{-2, 2, 0.5},  // straddles the start
		{11, 12, 0},   // after
		{-5, 20, 0.4}, // covers the window
		{4, 4, 0},     // empty
	} {
		if got := inWindow(at(c.start), at(c.end), at(0), at(10)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("inWindow(%v, %v) = %v, want %v", c.start, c.end, got, c.want)
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	var ty tally
	if ty.okRatio() != 0 {
		t.Error("empty tally must report 0")
	}
	boom := errors.New("boom")
	ty.op(nil)
	ty.op(nil)
	ty.op(boom)
	ty.op(nil)
	if ty.attempted != 4 || ty.failed != 1 || ty.okRatio() != 0.75 {
		t.Fatalf("after 4 ops, 1 error: attempted %d failed %d ok %v", ty.attempted, ty.failed, ty.okRatio())
	}
	// A later output check fails one more operation.
	ty.fail(check("digest", "a", "b"))
	if ty.failed != 2 || ty.okRatio() != 0.5 {
		t.Fatalf("after a failed check: failed %d ok %v", ty.failed, ty.okRatio())
	}
	// Failures never exceed attempts.
	for i := 0; i < 5; i++ {
		ty.fail(boom)
	}
	if ty.failed != ty.attempted || ty.okRatio() != 0 {
		t.Fatalf("failed %d of %d", ty.failed, ty.attempted)
	}
	if len(ty.reasons) == 0 || !strings.Contains(ty.reasons[1], "digest") {
		t.Errorf("reasons %q do not name the failed check", ty.reasons)
	}
	if check("x", "same", "same") != nil {
		t.Error("equal values must pass the check")
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	s := func(id, parent int, a, b time.Duration) span {
		return span{ID: id, Parent: parent, Start: a * time.Millisecond, End: b * time.Millisecond}
	}
	root := s(1, 0, 0, 100)
	spans := []span{root, s(2, 1, 10, 40), s(3, 1, 20, 50), s(4, 1, 60, 70), s(5, 2, 0, 100), s(6, 1, 95, 120)}
	if got := covered(spans, root); got != 55*time.Millisecond {
		t.Errorf("covered = %v, want 55ms (10–50, 60–70, 95–100)", got)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	calls := 0
	err := r.call("x", 0, "", func(id int) error { calls++; return nil })
	r.count("c", 1)
	if err != nil || calls != 1 {
		t.Fatal("a nil recorder must still run the call")
	}
}

func TestJobMixSeededAndBalanced(t *testing.T) {
	a, b := jobMix(7, 64), jobMix(7, 64)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed must give the same job sequence")
	}
	if fmt.Sprint(a) == fmt.Sprint(jobMix(8, 64)) {
		t.Error("different seeds should order jobs differently")
	}
	want := map[string]int{}
	for _, s := range mixBlock {
		want[s.label()]++
	}
	for blk := 0; blk+len(mixBlock) <= len(a); blk += len(mixBlock) {
		got := map[string]int{}
		for _, s := range a[blk : blk+len(mixBlock)] {
			got[s.label()]++
			if s.request("x", []byte("{}")).Workers != 1 {
				t.Fatal("every job must ask for one worker")
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("block at %d holds %v, want %v", blk, got, want)
		}
	}
	if 2*want["refine"] <= len(mixBlock) {
		t.Errorf("GNN refine jobs must be more than half the mix so the median falls inside that class: %v", want)
	}
}

// benchmarkFile mirrors the BENCHMARK.json contract.
type benchmarkFile struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []json.RawMessage `json:"workloads"`
	EndToEnd   []json.RawMessage `json:"end_to_end"`
	PerLayer   []json.RawMessage `json:"per_layer"`
}

// exactKeys decodes raw into dst after checking it has exactly keys.
func exactKeys(raw []byte, dst any, keys ...string) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return err
	}
	if len(m) != len(keys) {
		return fmt.Errorf("object has keys %v, want exactly %v", mapKeys(m), keys)
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return fmt.Errorf("object lacks key %q", k)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func mapKeys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func safeRelPath(p string) bool {
	if p == "" || len(p) > 200 || strings.HasPrefix(p, "/") {
		return false
	}
	for _, c := range p {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.ContainsRune("_.-/", c)) {
			return false
		}
	}
	for _, part := range strings.Split(p, "/") {
		if part == ".." {
			return false
		}
	}
	return true
}

// validateBenchmark checks a BENCHMARK.json against the contract and
// against this program's workload and metric tables.
func validateBenchmark(raw []byte) error {
	if len(raw) > 64<<10 {
		return fmt.Errorf("file is %d bytes, over 64 KiB", len(raw))
	}
	var b benchmarkFile
	if err := exactKeys(raw, &b, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"); err != nil {
		return err
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		return fmt.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command argument %q", c)
		}
	}
	if len(b.Paths) == 0 || len(b.Paths) > 16 {
		return fmt.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !safeRelPath(p) {
			return fmt.Errorf("path %q", p)
		}
	}
	for _, c := range b.Command[1:] {
		if strings.Contains(c, "/") && !strings.HasPrefix(c, "-") {
			inPaths := false
			for _, p := range b.Paths {
				inPaths = inPaths || strings.HasPrefix(path.Clean(c), path.Clean(p)+"/")
			}
			if !inPaths {
				return fmt.Errorf("command names %q outside paths", c)
			}
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d", b.RunSeconds)
	}
	names := map[string]bool{}
	use := func(n string) error {
		if !validName(n) {
			return fmt.Errorf("name %q breaks the grammar", n)
		}
		if names[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		names[n] = true
		return nil
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.Workloads) != len(workloads) {
		return fmt.Errorf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, raw := range b.Workloads {
		var w struct{ Name, Why string }
		if err := exactKeys(raw, &w, "name", "why"); err != nil {
			return err
		}
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Name != workloads[i].name {
			return fmt.Errorf("workload %d is %q, program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	checkList := func(list []json.RawMessage, specs []metricSpec, bounded bool) ([]metric, error) {
		if len(list) != len(specs) {
			return nil, fmt.Errorf("%d metrics, program reports %d", len(list), len(specs))
		}
		var out []metric
		for i, raw := range list {
			var m metric
			keys := []string{"name", "unit", "better"}
			if bounded {
				keys = append(keys, "bound")
			}
			if err := exactKeys(raw, &m, keys...); err != nil {
				return nil, err
			}
			if err := use(m.Name); err != nil {
				return nil, err
			}
			if m.Name != specs[i].Name || m.Unit != specs[i].Unit {
				return nil, fmt.Errorf("metric %d is %s [%s], program reports %s [%s]", i, m.Name, m.Unit, specs[i].Name, specs[i].Unit)
			}
			if !validUnit(m.Unit) {
				return nil, fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return nil, fmt.Errorf("metric %s: better %q", m.Name, m.Better)
			}
			if bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				return nil, fmt.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
			}
			out = append(out, m)
		}
		return out, nil
	}
	e2e, err := checkList(b.EndToEnd, endToEnd, true)
	if err != nil {
		return err
	}
	if len(e2e) > 16 || len(b.PerLayer) > 128 {
		return fmt.Errorf("too many metrics")
	}
	if _, err := checkList(b.PerLayer, perLayer, false); err != nil {
		return err
	}
	var setup *metric
	for i := range e2e {
		if e2e[i].Name == "setup_s" {
			setup = &e2e[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		return fmt.Errorf("setup_s [s, lower] is required")
	}
	for _, m := range e2e {
		if *m.Bound > *setup.Bound {
			return fmt.Errorf("setup_s must carry the largest bound; %s has %v > %v", m.Name, *m.Bound, *setup.Bound)
		}
	}
	return nil
}

func TestBenchmarkJSONSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := validateBenchmark(raw); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	// The validator must reject contract breaks.
	for what, mutate := range map[string]func(string) string{
		"extra key":      func(s string) string { return strings.Replace(s, `"paths"`, `"extra": 1, "paths"`, 1) },
		"bound too big":  func(s string) string { return strings.Replace(s, `"bound": 0.25`, `"bound": 0.3`, 1) },
		"bad name":       func(s string) string { return strings.Replace(s, `"setup_s"`, `"setup s"`, 1) },
		"absolute path":  func(s string) string { return strings.Replace(s, `"perfbench"`, `"/perfbench"`, 1) },
		"run_seconds 61": func(s string) string { return strings.Replace(s, `"run_seconds"`, `"run_seconds": 61, "x"`, 1) },
	} {
		bad := mutate(string(raw))
		if bad == string(raw) {
			t.Errorf("%s: mutation did not apply", what)
			continue
		}
		if validateBenchmark([]byte(bad)) == nil {
			t.Errorf("%s: validator accepted a broken file", what)
		}
	}
}
