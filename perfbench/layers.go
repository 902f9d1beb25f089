package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"tsteiner/internal/designio"
	"tsteiner/internal/drc"
	"tsteiner/internal/flow"
	"tsteiner/internal/grid"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rc"
	"tsteiner/internal/route"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
	"tsteiner/internal/synth"
)

// The traced runs call the layers one by one, in the order flow.Prepare
// and flow.SignoffTiming call them, so each call gets its own span. The
// composed results are checked bit for bit against the flow package's
// own entry points; a mismatch means the composition no longer mirrors
// the flow and is counted as a failure.

// tracedGenerate is flow.PrepareBenchmark's synthesis step.
func tracedGenerate(rec *recorder, parent int, req, name string) (*netlist.Design, error) {
	spec, err := synth.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	var d *netlist.Design
	err = rec.call("synth.generate", parent, req, func(int) error {
		d, err = synth.Generate(spec, lib.Default())
		return err
	})
	return d, err
}

// tracedPrepare mirrors flow.Prepare (place=true) and
// flow.PrepareKeepPlacement (place=false) for a design without
// edge-shift or budget overrides.
func tracedPrepare(rec *recorder, parent int, req string, d *netlist.Design, cfg flow.Config, doPlace bool) (*flow.Prepared, error) {
	p := &flow.Prepared{Design: d, Lib: lib.Default(), Config: cfg}
	err := rec.call("flow.prepare", parent, req, func(id int) error {
		if doPlace {
			if err := rec.call("place.place", id, req, func(int) error {
				_, err := place.Place(d, cfg.Place)
				return err
			}); err != nil {
				return fmt.Errorf("place: %w", err)
			}
		}
		if p.Config.RSMT.Workers == 0 {
			p.Config.RSMT.Workers = cfg.Workers
		}
		if err := rec.call("rsmt.build", id, req, func(int) error {
			f, err := rsmt.BuildAll(d, p.Config.RSMT)
			p.Forest = f
			return err
		}); err != nil {
			return fmt.Errorf("steiner: %w", err)
		}
		g, err := grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
		if err != nil {
			return err
		}
		return rec.call("route.edgeshift", id, req, func(int) error {
			route.EdgeShift(p.Forest, g, cfg.EdgeShift)
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return p, nil
}

// tracedSignoff mirrors flow.SignoffTiming for the default
// configuration (typical corner, no timing-driven routing). With
// countAllocs set it also records heap allocations per route and STA
// call; callers set it only when nothing else runs concurrently.
func tracedSignoff(rec *recorder, parent int, req string, p *flow.Prepared, f *rsmt.Forest, countAllocs bool) (*flow.Report, *sta.Result, error) {
	cfg := p.Config
	if cfg.TimingDrivenRoute || len(cfg.Corners) > 0 {
		return nil, nil, fmt.Errorf("traced sign-off supports only the default flow configuration")
	}
	d := p.Design
	rep := &flow.Report{}
	var timing *sta.Result
	err := rec.call("flow.signoff", parent, req, func(id int) error {
		rounded := f.Clone()
		rounded.RoundPositions()
		g, err := grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
		if err != nil {
			return err
		}
		var gr *route.Result
		var m0 uint64
		if countAllocs {
			m0 = mallocs()
		}
		if err := rec.call("route.route", id, req, func(int) error {
			gr, err = route.Route(d, rounded, g, cfg.Route)
			return err
		}); err != nil {
			return fmt.Errorf("global route: %w", err)
		}
		if countAllocs {
			rec.count("route.allocs", float64(mallocs()-m0))
		}
		rec.count("route.overflow", float64(gr.Overflow))
		var dres *drc.Result
		if err := rec.call("drc.run", id, req, func(int) error {
			dres, err = drc.Run(d, g, gr, cfg.DRC)
			return err
		}); err != nil {
			return fmt.Errorf("detailed route: %w", err)
		}
		var rcs []rc.NetRC
		if err := rec.call("rc.extract", id, req, func(int) error {
			rcs, err = rc.Extract(d, rounded, g, gr, p.Lib)
			return err
		}); err != nil {
			return fmt.Errorf("extract: %w", err)
		}
		if countAllocs {
			m0 = mallocs()
		}
		if err := rec.call("sta.run", id, req, func(int) error {
			timing, err = sta.Run(d, rcs)
			return err
		}); err != nil {
			return fmt.Errorf("sta: %w", err)
		}
		if countAllocs {
			rec.count("sta.allocs", float64(mallocs()-m0))
		}
		rep.WNS, rep.TNS, rep.Vios = timing.WNS, timing.TNS, timing.Vios
		rep.WirelengthDBU, rep.Vias, rep.DRVs = dres.WirelengthDBU, dres.Vias, dres.DRVs
		rep.Overflow = gr.Overflow
		rep.WHS, rep.HoldVios, rep.SlewVios = timing.WHS, timing.HoldVios, timing.SlewVios
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("signoff: %w", err)
	}
	return rep, timing, nil
}

// digester hashes values bit for bit.
type digester struct{ buf bytes.Buffer }

func (d *digester) f(xs ...float64) *digester {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.buf.Write(b[:])
	}
	return d
}

func (d *digester) i(xs ...int64) *digester {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.buf.Write(b[:])
	}
	return d
}

func (d *digester) sum() string {
	h := sha256.Sum256(d.buf.Bytes())
	return hex.EncodeToString(h[:8])
}

// reportDigest covers every deterministic column of a sign-off report:
// the timing and routing results, not the wall-clock fields.
func reportDigest(r *flow.Report) string {
	d := &digester{}
	d.f(r.WNS, r.TNS, r.WHS)
	d.i(int64(r.Vios), r.WirelengthDBU, int64(r.Vias), int64(r.DRVs), int64(r.Overflow), int64(r.HoldVios), int64(r.SlewVios))
	return d.sum()
}

// timingDigest covers the full STA annotation of a sign-off.
func timingDigest(t *sta.Result) string {
	d := &digester{}
	d.f(t.Arrival...).f(t.Slew...).f(t.ArrivalMin...).f(t.EndpointSlack...).f(t.EndpointArrival...)
	d.f(t.Required...).f(t.PinSlack...)
	d.f(t.WNS, t.TNS, t.WHS, t.MaxSlewSeen)
	return d.sum()
}

// labelDigest covers a training sample's labels.
func labelDigest(labels []float64) string { return (&digester{}).f(labels...).sum() }

// forestDigest hashes a forest's designio serialization.
func forestDigest(f *rsmt.Forest) (string, error) {
	var b bytes.Buffer
	if err := designio.WriteForestJSON(&b, f); err != nil {
		return "", err
	}
	h := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(h[:8]), nil
}
