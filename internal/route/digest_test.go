package route_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"tsteiner/internal/flow"
	"tsteiner/internal/grid"
	"tsteiner/internal/route"
	"tsteiner/internal/rsmt"
)

// routeDigest hashes every routed cell, layer and via count in net/edge
// order plus the result's tallies.
func routeDigest(res *route.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, nr := range res.Routes {
		put(int64(nr.Net))
		put(int64(len(nr.Edges)))
		for _, er := range nr.Edges {
			put(int64(er.TreeEdge))
			put(int64(len(er.Cells)))
			for _, c := range er.Cells {
				put(int64(c.X))
				put(int64(c.Y))
			}
			put(int64(len(er.Layers)))
			for _, l := range er.Layers {
				put(int64(l))
			}
			put(int64(er.Vias))
		}
	}
	put(res.WirelengthDBU)
	put(int64(res.Vias))
	put(int64(res.Overflow))
	put(int64(res.MazeReroutes))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRouteDigestPinned pins default-mode (congestion-probing, maze
// rip-up-and-reroute) routing on usb_cdc_core under the flow's default
// grid and router options: the unperturbed forest and two seeded
// perturbations must route to the recorded digests, overflow and maze
// reroute counts. Any change to pattern scoring, maze search order or
// edge costs that moves a single cell shows here.
func TestRouteDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("routes usb_cdc_core three times")
	}
	cfg := flow.DefaultConfig()
	p, err := flow.PrepareBenchmark("usb_cdc_core", 1.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		seed         int64 // 0 = unperturbed forest
		digest       string
		overflow     int
		mazeReroutes int
	}{
		{0, "567ffe78c08460ed", 258, 3364},
		{1, "a3ab6dbc2757c849", 420, 4691},
		{2, "4a91fa9225ba5382", 484, 5002},
	}
	for _, w := range want {
		f := p.Forest.Clone()
		if w.seed != 0 {
			rsmt.Perturb(f, rand.New(rand.NewSource(w.seed)), 24, p.Design.Die)
		}
		g, err := grid.New(p.Design.Die, cfg.GCellSize, cfg.LayerCaps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := route.Route(p.Design, f, g, cfg.Route)
		if err != nil {
			t.Fatal(err)
		}
		got := routeDigest(res)
		if got != w.digest || res.Overflow != w.overflow || res.MazeReroutes != w.mazeReroutes {
			t.Errorf("seed %d: digest %s overflow %d maze reroutes %d, want %s %d %d",
				w.seed, got, res.Overflow, res.MazeReroutes, w.digest, w.overflow, w.mazeReroutes)
		}
	}
}
