package route

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tsteiner/internal/geom"
	"tsteiner/internal/grid"
)

// refHeap is a container/heap reference for mazeScratch's open set.
type refHeap []mazeNode

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].est < h[j].est }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(mazeNode)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// TestPropMazeHeapMatchesContainerHeap: random push/pop sequences over
// estimates drawn from a handful of values (so most comparisons are exact
// ties) pop the same (cell, est) sequence from mazeScratch as from
// container/heap — the A* tie order is part of the route.
func TestPropMazeHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var s mazeScratch
		ref := &refHeap{}
		levels := 1 + rng.Intn(6)
		next := int32(0)
		for step := 0; step < 400; step++ {
			if ref.Len() == 0 || rng.Intn(5) < 3 {
				n := mazeNode{cell: next, cost: float64(step), est: float64(rng.Intn(levels)) * 0.5}
				next++
				s.push(n)
				heap.Push(ref, n)
				continue
			}
			got, want := s.pop(), heap.Pop(ref).(mazeNode)
			if got.cell != want.cell || got.est != want.est {
				t.Fatalf("trial %d step %d: popped (%d, %v), container/heap (%d, %v)",
					trial, step, got.cell, got.est, want.cell, want.est)
			}
		}
		for ref.Len() > 0 {
			got, want := s.pop(), heap.Pop(ref).(mazeNode)
			if got.cell != want.cell || got.est != want.est {
				t.Fatalf("trial %d drain: popped (%d, %v), container/heap (%d, %v)",
					trial, got.cell, got.est, want.cell, want.est)
			}
		}
		if len(s.open) != 0 {
			t.Fatalf("trial %d: %d nodes left after drain", trial, len(s.open))
		}
	}
}

// congestedGrid returns a 60×60 grid whose edge usage is seeded noise
// around capacity, so maze searches detour and hit many cost ties.
func congestedGrid(t testing.TB, seed int64) *grid.Grid {
	t.Helper()
	g, err := grid.New(geom.BBox{XLo: 0, YLo: 0, XHi: 472, YHi: 472}, 8, []int{0, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	c := g.CapDir(grid.Horiz)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			g.AddH(x, y, rng.Intn(2*c))
			g.AddV(x, y, rng.Intn(2*c))
		}
	}
	return g
}

// TestPropMazeScratchReuse: one router's reused scratch must route every
// query exactly as a fresh router does — across windows of varying size
// (including one larger than any before it, which regrows the arrays),
// grid usage that changes between searches, and an epoch wrap forced by
// setting the epoch counter to its maximum.
func TestPropMazeScratchReuse(t *testing.T) {
	g := congestedGrid(t, 7)
	rng := rand.New(rand.NewSource(11))
	reused := &router{g: g, opt: DefaultOptions()}
	span := 4
	grewLate := false
	for q := 0; q < 120; q++ {
		if q == 60 {
			span = g.W // windows larger than any earlier one
		}
		margin := rng.Intn(4)
		a := GP{rng.Intn(g.W), rng.Intn(g.H)}
		b := GP{
			min(max(a.X+rng.Intn(2*span+1)-span, 0), g.W-1),
			min(max(a.Y+rng.Intn(2*span+1)-span, 0), g.H-1),
		}
		reused.opt.MazeMargin = margin
		fresh := &router{g: g, opt: reused.opt}
		n := len(reused.maze.seen)
		got, want := reused.mazeRoute(a, b), fresh.mazeRoute(a, b)
		grewLate = grewLate || (q >= 60 && len(reused.maze.seen) > n)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d %v→%v margin %d: reused scratch path %v, fresh %v", q, a, b, margin, got, want)
		}
		reused.commit(got, +1) // later searches see the new usage
	}
	if !grewLate {
		t.Fatal("no late query regrew the scratch; the growth path went untested")
	}

	// Epoch wrap: the first search of a scratch stamps its cells with
	// epoch 1; once the counter wraps back to 1 those stamps must not
	// read as current.
	wrap := &router{g: g, opt: DefaultOptions()}
	a, b := GP{10, 10}, GP{30, 25}
	first := wrap.mazeRoute(a, b)
	wrap.maze.epoch = math.MaxUint32 // the next search wraps the epoch
	if got := wrap.mazeRoute(a, b); !slices.Equal(got, first) || wrap.maze.epoch != 1 {
		t.Fatalf("after epoch wrap (epoch %d): path %v, want %v", wrap.maze.epoch, got, first)
	}
}

// pathCost sums the congestion costs along a built path step by step:
// the reference patternCost must reproduce bit for bit.
func (r *router) pathCost(path []GP) float64 {
	var sum float64
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if a.Y == b.Y {
			sum += r.g.CostH(min(a.X, b.X), a.Y)
		} else {
			sum += r.g.CostV(a.X, min(a.Y, b.Y))
		}
	}
	return sum
}

// TestPropPatternCostMatchesPathCost: scoring an L or Z candidate from
// its waypoints equals pathCost of the built path bit for bit, and the
// built path is the exact-length unit-step walk through the waypoints.
func TestPropPatternCostMatchesPathCost(t *testing.T) {
	g := congestedGrid(t, 3)
	r := &router{g: g, opt: DefaultOptions()}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 500; q++ {
		a := GP{rng.Intn(g.W), rng.Intn(g.H)}
		b := GP{rng.Intn(g.W), rng.Intn(g.H)}
		var p pattern
		switch q % 3 {
		case 0:
			p = lPattern(a, b, q%2 == 0)
		case 1:
			p = pattern{pts: [4]GP{a, {(a.X + b.X) / 2, a.Y}, {(a.X + b.X) / 2, b.Y}, b}, n: 4}
		default:
			p = pattern{pts: [4]GP{a, {a.X, (a.Y + b.Y) / 2}, {b.X, (a.Y + b.Y) / 2}, b}, n: 4}
		}
		path := p.path()
		if len(path) != cap(path) {
			t.Fatalf("pattern %v: path len %d, cap %d", p, len(path), cap(path))
		}
		if path[0] != a || path[len(path)-1] != b || len(path)-1 != absInt(a.X-b.X)+absInt(a.Y-b.Y) {
			t.Fatalf("pattern %v: path %v is not a monotone a→b walk", p, path)
		}
		for i := 0; i+1 < len(path); i++ {
			if absInt(path[i+1].X-path[i].X)+absInt(path[i+1].Y-path[i].Y) != 1 {
				t.Fatalf("pattern %v: non-unit step %v→%v", p, path[i], path[i+1])
			}
		}
		if got, want := r.patternCost(p), r.pathCost(path); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pattern %v: patternCost %v, pathCost %v", p, got, want)
		}
	}
}
