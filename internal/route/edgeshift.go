package route

import (
	"math"

	"tsteiner/internal/geom"
	"tsteiner/internal/grid"
	"tsteiner/internal/rsmt"
)

// Edge shifting (FastRoute-style): before routing, Steiner points are
// nudged to relieve estimated congestion. Demand is estimated
// probabilistically — each tree edge spreads half a track along each of
// its two L-shaped embeddings — and each Steiner node greedily moves to
// the neighbouring GCell position that minimizes expected congestion cost
// plus a wirelength term.

// demandMap accumulates fractional expected track demand per 2D grid edge.
type demandMap struct {
	g    *grid.Grid
	h, v []float64
}

func newDemandMap(g *grid.Grid) *demandMap {
	return &demandMap{
		g: g,
		h: make([]float64, (g.W-1)*g.H),
		v: make([]float64, g.W*(g.H-1)),
	}
}

func (m *demandMap) addH(x, y int, w float64) {
	if x >= 0 && x < m.g.W-1 && y >= 0 && y < m.g.H {
		m.h[y*(m.g.W-1)+x] += w
	}
}

func (m *demandMap) addV(x, y int, w float64) {
	if x >= 0 && x < m.g.W && y >= 0 && y < m.g.H-1 {
		m.v[y*m.g.W+x] += w
	}
}

func (m *demandMap) demandH(x, y int) float64 {
	if x >= 0 && x < m.g.W-1 && y >= 0 && y < m.g.H {
		return m.h[y*(m.g.W-1)+x]
	}
	return 0
}

func (m *demandMap) demandV(x, y int) float64 {
	if x >= 0 && x < m.g.W && y >= 0 && y < m.g.H-1 {
		return m.v[y*m.g.W+x]
	}
	return 0
}

// addLShapes spreads weight w/2 along each L embedding of segment a→b.
func (m *demandMap) addLShapes(a, b GP, w float64) {
	m.addLPath(a, b, true, w/2)
	m.addLPath(a, b, false, w/2)
}

func (m *demandMap) addLPath(a, b GP, horizFirst bool, w float64) {
	var corner GP
	if horizFirst {
		corner = GP{b.X, a.Y}
	} else {
		corner = GP{a.X, b.Y}
	}
	m.addStraight(a, corner, w)
	m.addStraight(corner, b, w)
}

func (m *demandMap) addStraight(a, b GP, w float64) {
	if a.Y == b.Y {
		lo, hi := min(a.X, b.X), max(a.X, b.X)
		for x := lo; x < hi; x++ {
			m.addH(x, a.Y, w)
		}
		return
	}
	lo, hi := min(a.Y, b.Y), max(a.Y, b.Y)
	for y := lo; y < hi; y++ {
		m.addV(a.X, y, w)
	}
}

// expectedCost estimates the congestion cost of segment a→b as the mean
// of its two L embeddings under current demand.
func (m *demandMap) expectedCost(a, b GP) float64 {
	return (m.lCost(a, b, true) + m.lCost(a, b, false)) / 2
}

func (m *demandMap) lCost(a, b GP, horizFirst bool) float64 {
	var corner GP
	if horizFirst {
		corner = GP{b.X, a.Y}
	} else {
		corner = GP{a.X, b.Y}
	}
	return m.straightCost(a, corner) + m.straightCost(corner, b)
}

func (m *demandMap) straightCost(a, b GP) float64 {
	var sum float64
	if a.Y == b.Y {
		capH := float64(m.g.CapDir(grid.Horiz))
		lo, hi := min(a.X, b.X), max(a.X, b.X)
		for x := lo; x < hi; x++ {
			sum += demandCost(m.demandH(x, a.Y), capH)
		}
		return sum
	}
	capV := float64(m.g.CapDir(grid.Vert))
	lo, hi := min(a.Y, b.Y), max(a.Y, b.Y)
	for y := lo; y < hi; y++ {
		sum += demandCost(m.demandV(a.X, y), capV)
	}
	return sum
}

func demandCost(demand, cap float64) float64 {
	return 1.0 + math.Exp(6.0*((demand+1)/cap-1.0))
}

// EdgeShiftOptions tunes the congestion-driven Steiner shift.
type EdgeShiftOptions struct {
	// MaxShift is the farthest move per node, in GCells.
	MaxShift int
	// Passes over all Steiner nodes.
	Passes int
}

// DefaultEdgeShiftOptions returns the settings used by the flow.
func DefaultEdgeShiftOptions() EdgeShiftOptions { return EdgeShiftOptions{MaxShift: 2, Passes: 2} }

// EdgeShift moves Steiner nodes of f to relieve estimated congestion on
// g; positions stay inside the die. Returns the number of nodes moved.
func EdgeShift(f *rsmt.Forest, g *grid.Grid, opt EdgeShiftOptions) int {
	if opt.MaxShift < 1 {
		opt.MaxShift = 1
	}
	if opt.Passes < 1 {
		opt.Passes = 1
	}
	m := newDemandMap(g)
	gcOf := func(p geom.FPoint) GP {
		x, y := g.GCellOf(p.Round())
		return GP{x, y}
	}
	// Seed the demand map with every tree edge.
	for _, tr := range f.Trees {
		for _, e := range tr.Edges {
			m.addLShapes(gcOf(tr.Nodes[e.A].Pos), gcOf(tr.Nodes[e.B].Pos), 1)
		}
	}

	moved := 0
	for pass := 0; pass < opt.Passes; pass++ {
		for _, tr := range f.Trees {
			adj := tr.Adjacency()
			for ni := range tr.Nodes {
				if tr.Nodes[ni].Kind != rsmt.SteinerNode {
					continue
				}
				if shiftNode(tr, ni, adj[ni], m, g, opt.MaxShift, gcOf) {
					moved++
				}
			}
		}
	}
	return moved
}

// shiftNode tries GCell-step moves of one Steiner node and applies the
// best improvement. Demand contributions of incident edges are moved with
// the node.
func shiftNode(tr *rsmt.Tree, ni int, nbrs []int32, m *demandMap, g *grid.Grid, maxShift int, gcOf func(geom.FPoint) GP) bool {
	cur := tr.Nodes[ni].Pos
	curGC := gcOf(cur)

	// Remove this node's incident demand while evaluating.
	for _, nb := range nbrs {
		m.addLShapes(curGC, gcOf(tr.Nodes[nb].Pos), -1)
	}
	score := func(gc GP) float64 {
		var sum float64
		for _, nb := range nbrs {
			ngc := gcOf(tr.Nodes[nb].Pos)
			sum += m.expectedCost(gc, ngc)
			// Wirelength term keeps moves honest: one unit per GCell of
			// detour, matching the base edge cost.
			sum += float64(absInt(gc.X-ngc.X) + absInt(gc.Y-ngc.Y))
		}
		return sum
	}
	bestGC := curGC
	bestScore := score(curGC)
	for _, dxy := range shiftDeltas(maxShift) {
		cand := GP{curGC.X + dxy[0], curGC.Y + dxy[1]}
		if cand.X < 0 || cand.X >= g.W || cand.Y < 0 || cand.Y >= g.H {
			continue
		}
		if s := score(cand); s < bestScore-1e-9 {
			bestScore = s
			bestGC = cand
		}
	}
	movedNode := bestGC != curGC
	if movedNode {
		c := g.Center(bestGC.X, bestGC.Y)
		tr.Nodes[ni].Pos = g.Die.ClampF(c.ToF())
	}
	for _, nb := range nbrs {
		m.addLShapes(bestGC, gcOf(tr.Nodes[nb].Pos), 1)
	}
	return movedNode
}

func shiftDeltas(maxShift int) [][2]int {
	var out [][2]int
	for d := 1; d <= maxShift; d++ {
		out = append(out, [2]int{d, 0}, [2]int{-d, 0}, [2]int{0, d}, [2]int{0, -d})
	}
	return out
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
