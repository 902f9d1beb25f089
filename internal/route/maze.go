package route

// Maze routing: congestion-aware A* over the GCell grid, restricted to a
// window around the endpoints so reroutes stay cheap even on large dies.
// Returns nil when no path exists inside the window (caller falls back to
// pattern routing).
//
// All search state lives in a mazeScratch owned by the router and reused
// by every mazeRoute call of one Route or Incremental, so a search step
// allocates nothing: per-cell state is indexed by window-local cell and
// validated by an epoch stamp instead of being cleared, and the open set
// is a value-typed binary heap.

// mazeNode is one open-set entry: a window-local cell with the g-cost it
// was reached at and its A* estimate g + heuristic.
type mazeNode struct {
	cell      int32
	cost, est float64
}

// mazeScratch is the reusable state of one router's maze searches. A
// cell's dist/parent are valid in the current search only when
// seen[cell] == epoch, and it is closed only when closed[cell] == epoch;
// bumping epoch therefore resets every cell at once.
type mazeScratch struct {
	epoch  uint32
	seen   []uint32
	closed []uint32
	dist   []float64
	parent []int32
	open   []mazeNode
}

// begin prepares the scratch for a search over a window of n cells and
// returns the new epoch. Regrown arrays start at stamp 0, which no epoch
// takes.
func (s *mazeScratch) begin(n int) uint32 {
	if n > len(s.seen) {
		s.seen = make([]uint32, n)
		s.closed = make([]uint32, n)
		s.dist = make([]float64, n)
		s.parent = make([]int32, n)
	}
	s.epoch++
	if s.epoch == 0 {
		// Wrapped: stamps from 2^32 searches ago would read as current.
		clear(s.seen)
		clear(s.closed)
		s.epoch = 1
	}
	s.open = s.open[:0]
	return s.epoch
}

// push adds x to the open heap. The sift is container/heap's up with its
// strict < on est, so equal estimates pop in the order container/heap
// would pop them.
func (s *mazeScratch) push(x mazeNode) {
	h := append(s.open, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(x.est < h[i].est) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
	s.open = h
}

// pop removes and returns the minimum-est node: container/heap's Pop,
// i.e. move the last node to the root and sift it down, preferring the
// right child only when it is strictly smaller than the left.
func (s *mazeScratch) pop() mazeNode {
	h := s.open
	top := h[0]
	n := len(h) - 1
	x := h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].est < h[j].est {
			j = j2
		}
		if !(h[j].est < x.est) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	s.open = h[:n]
	return top
}

// mazeSteps is the neighbour expansion order: +X, -X, +Y, -Y.
var mazeSteps = [4]struct{ dx, dy int }{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// mazeRoute searches for the cheapest path from start to goal within the
// inflated bounding window.
func (r *router) mazeRoute(start, goal GP) []GP {
	m := r.opt.MazeMargin
	xlo := max(min(start.X, goal.X)-m, 0)
	xhi := min(max(start.X, goal.X)+m, r.g.W-1)
	ylo := max(min(start.Y, goal.Y)-m, 0)
	yhi := min(max(start.Y, goal.Y)+m, r.g.H-1)
	w := xhi - xlo + 1
	h := yhi - ylo + 1

	s := &r.maze
	ep := s.begin(w * h)
	// heur is admissible: every edge costs more than 1.
	heur := func(x, y int) float64 { return float64(absInt(x-goal.X) + absInt(y-goal.Y)) }

	si := int32((start.Y-ylo)*w + (start.X - xlo))
	gi := int32((goal.Y-ylo)*w + (goal.X - xlo))
	s.seen[si] = ep
	s.dist[si] = 0
	s.parent[si] = si
	s.push(mazeNode{cell: si, cost: 0, est: heur(start.X, start.Y)})

	for len(s.open) > 0 {
		cur := s.pop()
		ci := cur.cell
		if s.closed[ci] == ep {
			continue
		}
		s.closed[ci] = ep
		if ci == gi {
			return s.reconstruct(w, xlo, ylo, si, gi)
		}
		x := int(ci)%w + xlo
		y := int(ci)/w + ylo
		for _, st := range mazeSteps {
			nx, ny := x+st.dx, y+st.dy
			if nx < xlo || nx > xhi || ny < ylo || ny > yhi {
				continue
			}
			ni := ci + int32(st.dx+st.dy*w)
			if s.closed[ni] == ep {
				continue
			}
			var c float64
			if st.dy == 0 {
				c = r.g.CostH(min(x, nx), y)
			} else {
				c = r.g.CostV(x, min(y, ny))
			}
			nc := cur.cost + c
			if s.seen[ni] != ep || nc < s.dist[ni] {
				s.seen[ni] = ep
				s.dist[ni] = nc
				s.parent[ni] = ci
				s.push(mazeNode{cell: ni, cost: nc, est: nc + heur(nx, ny)})
			}
		}
	}
	return nil
}

// reconstruct walks parent links from goal back to start and returns
// the path start→goal in one exact-length slice.
func (s *mazeScratch) reconstruct(w, xlo, ylo int, si, gi int32) []GP {
	n := 1
	for cur := gi; cur != si; cur = s.parent[cur] {
		n++
	}
	path := make([]GP, n)
	for i, cur := n-1, gi; i >= 0; i, cur = i-1, s.parent[cur] {
		path[i] = GP{X: int(cur)%w + xlo, Y: int(cur)/w + ylo}
	}
	return path
}
