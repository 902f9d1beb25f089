// Corner-derated sign-off: a Corner rescales one extraction's delays,
// transitions and clock constraint uniformly, so fast/slow/typical
// analyses are pure rescalings of the same parasitics rather than
// separate extractions. The typical corner is all-ones, which makes
// RunCorner(d, rcs, TypicalCorner()) bitwise identical to Run(d, rcs):
// IEEE-754 multiplication by exactly 1.0 is the identity on every
// finite, infinite and signed-zero operand, so no floating-point
// result can move. TestOracleMultiCornerSTA pins both properties.
package sta

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tsteiner/internal/netlist"
	"tsteiner/internal/rc"
)

// Corner is a derating corner: every cell-arc and interconnect delay is
// multiplied by DelayScale, every transition (boundary slews included)
// by SlewScale, and the clock period by ClockScale. Setup and hold
// constraints scale with DelayScale — they are cell delays too.
type Corner struct {
	Name       string
	DelayScale float64
	SlewScale  float64
	ClockScale float64
}

// TypicalCorner is the identity corner: RunCorner with it is bitwise
// identical to Run.
func TypicalCorner() Corner {
	return Corner{Name: "typical", DelayScale: 1.0, SlewScale: 1.0, ClockScale: 1.0}
}

// FastCorner derates toward the fast process/voltage/temperature
// extreme: shorter delays, crisper transitions, same clock. Setup gets
// easier and hold gets harder — the corner that catches hold escapes.
func FastCorner() Corner {
	return Corner{Name: "fast", DelayScale: 0.85, SlewScale: 0.90, ClockScale: 1.0}
}

// SlowCorner derates toward the slow extreme: longer delays, degraded
// transitions, same clock. The setup-critical corner.
func SlowCorner() Corner {
	return Corner{Name: "slow", DelayScale: 1.15, SlewScale: 1.10, ClockScale: 1.0}
}

// DefaultCorners is the standard three-corner sign-off matrix in
// analysis order: fast, typical, slow.
func DefaultCorners() []Corner {
	return []Corner{FastCorner(), TypicalCorner(), SlowCorner()}
}

// IsTypical reports whether the corner is the identity rescaling.
func (c Corner) IsTypical() bool {
	return c.DelayScale == 1.0 && c.SlewScale == 1.0 && c.ClockScale == 1.0
}

// Validate rejects corners that would corrupt the analysis: scales must
// be positive and finite, and the name non-empty (results are keyed on
// it in reports).
func (c Corner) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("sta: corner with empty name")
	}
	for _, s := range []struct {
		name string
		v    float64
	}{{"DelayScale", c.DelayScale}, {"SlewScale", c.SlewScale}, {"ClockScale", c.ClockScale}} {
		if !(s.v > 0) || math.IsInf(s.v, 1) {
			return fmt.Errorf("sta: corner %q: %s %v not in (0, +Inf)", c.Name, s.name, s.v)
		}
	}
	return nil
}

// ParseCorners parses a -corners flag value: a comma-separated list of
// preset names ("fast", "typical", "slow"), the shorthand "default"
// for the full three-corner matrix, or custom corners spelled
// "name:delayScale:slewScale:clockScale".
func ParseCorners(spec string) ([]Corner, error) {
	var out []Corner
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		switch tok {
		case "":
			return nil, fmt.Errorf("sta: empty corner in spec %q", spec)
		case "default":
			out = append(out, DefaultCorners()...)
		case "fast":
			out = append(out, FastCorner())
		case "typical":
			out = append(out, TypicalCorner())
		case "slow":
			out = append(out, SlowCorner())
		default:
			parts := strings.Split(tok, ":")
			if len(parts) != 4 {
				return nil, fmt.Errorf("sta: corner %q: want a preset name or name:delay:slew:clock", tok)
			}
			c := Corner{Name: parts[0]}
			for i, dst := range []*float64{&c.DelayScale, &c.SlewScale, &c.ClockScale} {
				v, err := strconv.ParseFloat(parts[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("sta: corner %q: bad scale %q: %w", tok, parts[i+1], err)
				}
				*dst = v
			}
			if err := c.Validate(); err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	// Every token appends a corner or fails, so out is never empty.
	if err := ValidateCorners(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ValidateCorners checks each corner and rejects duplicate names (the
// matrix is keyed on them). An empty list is valid; callers that need at
// least one corner check that themselves.
func ValidateCorners(corners []Corner) error {
	seen := make(map[string]bool, len(corners))
	for _, c := range corners {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("sta: duplicate corner name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// HoldCorner returns the index of the corner hold analysis reads:
// minimum DelayScale (shortest paths race the clock hardest), first on
// ties. corners must be non-empty.
func HoldCorner(corners []Corner) int {
	best := 0
	for i, c := range corners[1:] {
		if c.DelayScale < corners[best].DelayScale {
			best = i + 1
		}
	}
	return best
}

// RunCorner performs the PERT traversal with the corner's derating
// applied uniformly. RunCorner(d, rcs, TypicalCorner()) is bitwise
// identical to Run(d, rcs).
func RunCorner(d *netlist.Design, rcs []rc.NetRC, c Corner) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return run(d, rcs, c)
}

// RunCorners analyzes the same parasitics at every corner, returning
// one Result per corner in input order. Deterministic by construction:
// corners are independent and analyzed sequentially.
func RunCorners(d *netlist.Design, rcs []rc.NetRC, corners []Corner) ([]*Result, error) {
	if len(corners) == 0 {
		return nil, fmt.Errorf("sta: empty corner list")
	}
	if err := ValidateCorners(corners); err != nil {
		return nil, err
	}
	out := make([]*Result, len(corners))
	for i, c := range corners {
		r, err := run(d, rcs, c)
		if err != nil {
			return nil, fmt.Errorf("sta: corner %q: %w", c.Name, err)
		}
		out[i] = r
	}
	return out, nil
}

// CornerMetrics is the compact per-corner sign-off summary used in
// corner-matrix tables and job results.
type CornerMetrics struct {
	Corner   Corner
	WNS, TNS float64
	Vios     int
	WHS      float64
	HoldVios int
	SlewVios int
}

// CornerSummary extracts the matrix-row summary from a corner Result.
func (r *Result) CornerSummary() CornerMetrics {
	return CornerMetrics{
		Corner: r.Corner,
		WNS:    r.WNS, TNS: r.TNS, Vios: r.Vios,
		WHS: r.WHS, HoldVios: r.HoldVios, SlewVios: r.SlewVios,
	}
}

// CornerSlack maps a typical-corner endpoint slack to the corner's
// slack under the uniform derating, for the common same-setup
// approximation used by the differentiable matrix penalty:
//
//	slack_c = ClockScale·T − DelayScale·arrival_typ − DelayScale·setup
//	        = DelayScale·slack_typ + (ClockScale − DelayScale)·T
//
// exact when slew-dependent table lookups are linear in the derating
// (the affine model of lib.NewLUTFromModel at matched slews); an
// upper-level approximation otherwise. The core refiner uses it to
// derive per-corner penalties from one predicted slack vector.
func (c Corner) CornerSlack(slackTyp, clockPeriod float64) float64 {
	return c.DelayScale*slackTyp + (c.ClockScale-c.DelayScale)*clockPeriod
}
