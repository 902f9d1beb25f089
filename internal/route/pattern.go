package route

// Pattern routing: candidate paths between two GCells restricted to L
// (one bend) and Z (two bends) shapes, evaluated against the current
// congestion costs. Always succeeds; used both for initial routing and as
// the fallback when maze search is window-limited.

// pattern is a candidate route given by its waypoints: the two endpoints
// and up to two bends, joined by straight unit-step runs. Candidates are
// scored from the waypoints; only the winner is built into a cell path.
type pattern struct {
	pts [4]GP
	n   int
}

// patternRoute returns the cheapest L/Z path from a to b under current
// grid costs.
func (r *router) patternRoute(a, b GP) []GP {
	if a == b {
		return []GP{a}
	}
	if a.X == b.X || a.Y == b.Y {
		return pattern{pts: [4]GP{a, b}, n: 2}.path()
	}
	if r.opt.StaticPatterns {
		return staticLPattern(a, b).path()
	}
	best := lPattern(a, b, true) // horizontal first
	bestCost := r.patternCost(best)
	alt := lPattern(a, b, false)
	if c := r.patternCost(alt); c < bestCost {
		best, bestCost = alt, c
	}
	// Z patterns: intermediate column (HVH) or row (VHV).
	k := r.opt.ZCandidates
	for i := 1; i <= k; i++ {
		if xm := a.X + (b.X-a.X)*i/(k+1); xm != a.X && xm != b.X {
			p := pattern{pts: [4]GP{a, {xm, a.Y}, {xm, b.Y}, b}, n: 4} // a→(xm,a.Y)→(xm,b.Y)→b
			if c := r.patternCost(p); c < bestCost {
				best, bestCost = p, c
			}
		}
		if ym := a.Y + (b.Y-a.Y)*i/(k+1); ym != a.Y && ym != b.Y {
			p := pattern{pts: [4]GP{a, {a.X, ym}, {b.X, ym}, b}, n: 4} // a→(a.X,ym)→(b.X,ym)→b
			if c := r.patternCost(p); c < bestCost {
				best, bestCost = p, c
			}
		}
	}
	return best.path()
}

// staticLPattern is the congestion-blind pattern choice of StaticPatterns
// mode: an L whose corner side is picked by the parity of the endpoint
// coordinate sum. A pure function of (a, b) — no grid state is read —
// while the parity split still statistically spreads elbows instead of
// stacking every bend on one side.
func staticLPattern(a, b GP) pattern {
	return lPattern(a, b, (a.X+a.Y+b.X+b.Y)&1 == 0)
}

// lPattern routes via corner (b.X, a.Y) when horizFirst, else (a.X, b.Y).
func lPattern(a, b GP, horizFirst bool) pattern {
	corner := GP{a.X, b.Y}
	if horizFirst {
		corner = GP{b.X, a.Y}
	}
	return pattern{pts: [4]GP{a, corner, b}, n: 3}
}

// patternCost sums the current congestion costs of the pattern's steps
// in path order, so it equals pathCost of the built path bit for bit.
func (r *router) patternCost(p pattern) float64 {
	var sum float64
	for i := 0; i+1 < p.n; i++ {
		a, b := p.pts[i], p.pts[i+1]
		switch {
		case b.X > a.X:
			for x := a.X; x < b.X; x++ {
				sum += r.g.CostH(x, a.Y)
			}
		case b.X < a.X:
			for x := a.X; x > b.X; x-- {
				sum += r.g.CostH(x-1, a.Y)
			}
		case b.Y > a.Y:
			for y := a.Y; y < b.Y; y++ {
				sum += r.g.CostV(a.X, y)
			}
		case b.Y < a.Y:
			for y := a.Y; y > b.Y; y-- {
				sum += r.g.CostV(a.X, y-1)
			}
		}
	}
	return sum
}

// path builds the pattern's unit-step cell path in one exact-length
// slice.
func (p pattern) path() []GP {
	n := 1
	for i := 0; i+1 < p.n; i++ {
		n += absInt(p.pts[i+1].X-p.pts[i].X) + absInt(p.pts[i+1].Y-p.pts[i].Y)
	}
	path := make([]GP, 1, n)
	path[0] = p.pts[0]
	for i := 0; i+1 < p.n; i++ {
		cur, end := p.pts[i], p.pts[i+1]
		for cur != end {
			switch {
			case cur.X < end.X:
				cur.X++
			case cur.X > end.X:
				cur.X--
			case cur.Y < end.Y:
				cur.Y++
			default:
				cur.Y--
			}
			path = append(path, cur)
		}
	}
	return path
}
