package exp

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"tsteiner/internal/core"
	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/obs"
	"tsteiner/internal/par"
	"tsteiner/internal/train"
)

// runObsFlow executes a small end-to-end pipeline (baseline flow → train →
// refine → sign-off) and serializes every algorithmic output. Wall-clock
// fields (GRSec, ExtractSec, STASec, refinement RuntimeSec) are excluded —
// they differ between any two runs regardless of telemetry — as is the
// resolved Workers annotation; DRSec stays because the DR surrogate's
// runtime is modeled, not measured.
func runObsFlow(t *testing.T, workers int, sink *obs.Sink) string {
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
		fmt.Fprintf(&b, "iter %d wns=%v tns=%v theta=%v accepted=%v\n",
			i, h.WNS, h.TNS, h.Theta, h.Accepted)
	}
	var fb bytes.Buffer
	if err := designio.WriteForestJSON(&fb, res.Forest); err != nil {
		t.Fatal(err)
	}
	b.Write(fb.Bytes())
	return b.String()
}

// TestObsServerByteIdentical extends the telemetry gate to the live
// observability surface: running the pipeline with an attached /metrics
// server being scraped concurrently must produce byte-identical
// algorithmic output to running with no telemetry at all. Serving is
// read-only (snapshots under the sink lock), so this holds at any
// scrape rate.
func TestObsServerByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the spm pipeline twice")
	}
	sink := obs.New(io.Discard)
	sink.EnableRing(256)
	sv, err := obs.Serve("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	scraped := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			for _, ep := range []string{"/metrics", "/trace?n=20", "/healthz"} {
				resp, err := http.Get(sv.URL() + ep)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					n++
				}
			}
		}
	}()

	par.SetObserver(sink)
	withServer := runObsFlow(t, 4, sink)
	par.SetObserver(nil)
	close(stop)
	if n := <-scraped; n == 0 {
		t.Fatal("scraper never reached the server")
	}
	if err := sv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}

	without := runObsFlow(t, 4, nil)
	if withServer != without {
		t.Fatalf("serving /metrics changed algorithmic output:\n--- with server ---\n%s\n--- without ---\n%s",
			withServer, without)
	}
}

// TestObsDisabledByteIdentical is the telemetry determinism gate: the full
// pipeline must produce byte-identical algorithmic outputs with a live
// sink (including the par worker-utilization observer) and with the nil
// NopSink, at workers=1 and workers=4.
func TestObsDisabledByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the spm pipeline four times")
	}
	results := map[string]string{}
	for _, w := range []int{1, 4} {
		var trace bytes.Buffer
		sink := obs.New(&trace)
		par.SetObserver(sink)
		results[fmt.Sprintf("on/w=%d", w)] = runObsFlow(t, w, sink)
		par.SetObserver(nil)
		if trace.Len() == 0 {
			t.Fatal("live sink captured no events")
		}
		results[fmt.Sprintf("off/w=%d", w)] = runObsFlow(t, w, nil)
	}
	want := results["off/w=1"]
	if want == "" {
		t.Fatal("empty serialized output")
	}
	for key, got := range results {
		if got != want {
			t.Fatalf("output of %s differs from off/w=1:\n--- %s ---\n%s\n--- off/w=1 ---\n%s",
				key, key, got, want)
		}
	}
}
