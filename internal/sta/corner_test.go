package sta

import (
	"math/rand"
	"testing"

	"tsteiner/internal/netlist"
)

// TestCornerTypicalBitIdentical pins backward compatibility: RunCorner
// at the identity corner (and the single-entry RunCorners) must be
// bitwise identical to Run on the same parasitics.
func TestCornerTypicalBitIdentical(t *testing.T) {
	fx := newWindowFixture(t, "spm", 1.0)
	got, err := RunCorner(fx.d, fx.rcs, TypicalCorner())
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, fx.full)

	multi, err := RunCorners(fx.d, fx.rcs, []Corner{TypicalCorner()})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 1 {
		t.Fatalf("RunCorners returned %d results for 1 corner", len(multi))
	}
	requireBitIdentical(t, multi[0], fx.full)
}

// TestCornerRunCornersOrdered: RunCorners returns one result per
// corner in input order, each bitwise identical to a standalone
// RunCorner at that corner.
func TestCornerRunCornersOrdered(t *testing.T) {
	fx := newWindowFixture(t, "cic_decimator", 1.0)
	corners := DefaultCorners()
	multi, err := RunCorners(fx.d, fx.rcs, corners)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != len(corners) {
		t.Fatalf("RunCorners returned %d results for %d corners", len(multi), len(corners))
	}
	for i, c := range corners {
		if multi[i].Corner != c {
			t.Fatalf("result %d carries corner %q, want %q", i, multi[i].Corner.Name, c.Name)
		}
		want, err := RunCorner(fx.d, fx.rcs, c)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, multi[i], want)
	}
}

// TestCornerRetimerMatchesFullRun extends the windowed-STA contract to
// derated corners: chained single-net moves re-timed by a per-corner
// Retimer must stay bit-identical to a from-scratch RunCorner.
func TestCornerRetimerMatchesFullRun(t *testing.T) {
	for _, c := range []Corner{FastCorner(), SlowCorner()} {
		t.Run(c.Name, func(t *testing.T) {
			fx := newWindowFixture(t, "spm", 1.0)
			rt, err := NewCornerRetimer(fx.d, c)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := RunCorner(fx.d, fx.rcs, c)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1303))
			trials := 20
			if testing.Short() {
				trials = 6
			}
			for trial := 0; trial < trials; trial++ {
				ni := netlist.NetID(rng.Intn(len(fx.d.Nets)))
				if !fx.jitterNet(t, ni, rng) {
					continue
				}
				got, err := rt.Retime(prev, fx.rcs, []netlist.NetID{ni})
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunCorner(fx.d, fx.rcs, c)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, got, want)
				prev = got
			}
		})
	}
}

// TestCornerRetimerRejectsMismatch: feeding a typical-corner result to
// a derated Retimer must be a typed error, not a silently wrong
// annotation.
func TestCornerRetimerRejectsMismatch(t *testing.T) {
	fx := newWindowFixture(t, "spm", 0.5)
	rt, err := NewCornerRetimer(fx.d, SlowCorner())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Retime(fx.full, fx.rcs, []netlist.NetID{0}); err == nil {
		t.Fatal("corner-mismatched Retime succeeded")
	}
}

// TestCornerValidate covers the corner sanity checks, the duplicate-name
// rejection in RunCorners and the hold-corner pick.
func TestCornerValidate(t *testing.T) {
	bad := []Corner{
		{Name: "", DelayScale: 1, SlewScale: 1, ClockScale: 1},
		{Name: "z", DelayScale: 0, SlewScale: 1, ClockScale: 1},
		{Name: "z", DelayScale: 1, SlewScale: -2, ClockScale: 1},
		{Name: "z", DelayScale: 1, SlewScale: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("corner %+v validated", c)
		}
	}
	for _, c := range DefaultCorners() {
		if err := c.Validate(); err != nil {
			t.Fatalf("preset %q failed validation: %v", c.Name, err)
		}
	}
	if !TypicalCorner().IsTypical() || FastCorner().IsTypical() {
		t.Fatal("IsTypical misclassifies the presets")
	}

	fx := newWindowFixture(t, "spm", 0.5)
	if _, err := RunCorners(fx.d, fx.rcs, []Corner{FastCorner(), FastCorner()}); err == nil {
		t.Fatal("duplicate corner names accepted")
	}
	if _, err := RunCorners(fx.d, fx.rcs, nil); err == nil {
		t.Fatal("empty corner list accepted")
	}
	if err := ValidateCorners(nil); err != nil {
		t.Fatalf("ValidateCorners rejected the empty list: %v", err)
	}
	ff := Corner{Name: "ff", DelayScale: FastCorner().DelayScale, SlewScale: 1, ClockScale: 1}
	if i := HoldCorner([]Corner{SlowCorner(), FastCorner(), ff}); i != 1 {
		t.Fatalf("HoldCorner=%d, want 1 (minimum DelayScale, first on ties)", i)
	}
}

// TestParseCorners covers the -corners flag grammar.
func TestParseCorners(t *testing.T) {
	got, err := ParseCorners("fast, typical ,slow")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != FastCorner() || got[1] != TypicalCorner() || got[2] != SlowCorner() {
		t.Fatalf("preset list parsed to %+v", got)
	}
	got, err = ParseCorners("default")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("default parsed to %d corners", len(got))
	}
	got, err = ParseCorners("hot:1.2:1.05:0.95")
	if err != nil {
		t.Fatal(err)
	}
	want := Corner{Name: "hot", DelayScale: 1.2, SlewScale: 1.05, ClockScale: 0.95}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("custom corner parsed to %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "warm", "hot:1.2:1.05", "hot:x:1:1", "hot:0:1:1", "fast,,slow", "fast,fast"} {
		if _, err := ParseCorners(bad); err == nil {
			t.Fatalf("ParseCorners(%q) succeeded", bad)
		}
	}
}
