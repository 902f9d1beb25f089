package exp

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"tsteiner/internal/obs"
	"tsteiner/internal/par"
)

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
	withServer := runPipeline(t, 4, 1, sink)
	par.SetObserver(nil)
	close(stop)
	if n := <-scraped; n == 0 {
		t.Fatal("scraper never reached the server")
	}
	if err := sv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}

	without := runPipeline(t, 4, 1, nil)
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
		results[fmt.Sprintf("on/w=%d", w)] = runPipeline(t, w, 1, sink)
		par.SetObserver(nil)
		if trace.Len() == 0 {
			t.Fatal("live sink captured no events")
		}
		results[fmt.Sprintf("off/w=%d", w)] = runPipeline(t, w, 1, nil)
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
