package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// defaultMinSplit is the smallest op, in work units, that a parallel
// workspace splits; smaller ops run serially on the caller. One unit is
// about one multiply-add or one element moved (see the cost* weights).
// A split costs the caller ≈1 µs of handoff when the helper is polling;
// at this size the half the helper takes is worth several of those.
const defaultMinSplit = 8192

// Per-element weights of the elementwise kernels, in work units: a
// transcendental costs tens of multiply-adds.
const (
	costMove     = 1  // copy, add, multiply
	costTanh     = 24 // math.Tanh
	costSoftplus = 48 // math.Exp + math.Log1p
	costSigGrad  = 24 // math.Exp + a division
)

// spinWindow is how long an idle helper polls for the next op before it
// parks; spinCheck is how many polls it makes between clock reads, with
// a runtime.Gosched at each so a polling helper never holds its P away
// from the scheduler (the GC's workers included) for long.
const (
	spinWindow = 50 * time.Microsecond
	spinCheck  = 64
)

// pool is a parallel workspace's helpers: width-1 goroutines that each
// take contiguous blocks of a split op while the caller takes the rest.
//
// Handoff: the caller stores the op's descriptor, then publishes it in
// state as (op sequence number, unclaimed block count); every
// participant, the caller included, claims blocks by decrementing the
// count with a compare-and-swap on the whole word. The caller claims
// first and keeps claiming after its own block, so a block no helper has
// taken yet is taken back and run by the caller: a helper that is parked,
// descheduled or slow to wake costs a serial op, never a stall. The
// caller then waits until every claimed block is done; only after that
// may it overwrite the descriptor, so a helper reads it only between a
// successful claim and its done signal.
type pool struct {
	width, minSplit int
	seq             uint64 // last op sequence number posted (caller only)
	task            task
	helpers         []*helper
	wg              sync.WaitGroup
	closed          atomic.Bool
	panicked        atomic.Pointer[panicValue]

	_     [64]byte
	state atomic.Uint64 // seq<<16 | unclaimed blocks
	_     [64]byte
	done  atomic.Int32 // blocks finished in the current op
	_     [64]byte
}

// helper is one pool goroutine's parking slot. sleeping is set while it
// is about to block on wake; a poster that clears it owes one token.
type helper struct {
	sleeping atomic.Bool
	wake     chan struct{}
}

// panicValue carries a kernel panic from whichever goroutine ran the
// block to the caller, which re-panics once the op is fully drained.
type panicValue struct{ v any }

func newPool(width, minSplit int) *pool {
	p := &pool{width: width, minSplit: minSplit}
	for i := 1; i < width; i++ {
		h := &helper{wake: make(chan struct{}, 1)}
		p.helpers = append(p.helpers, h)
		p.wg.Add(1)
		go p.help(h)
	}
	return p
}

// run executes t over [0, extent) in min(width, extent) blocks and
// returns how many blocks the caller ran beyond its first.
func (p *pool) run(t *task, extent int) (reclaimed int) {
	parts := min(p.width, extent)
	p.task = *t
	p.task.extent, p.task.parts = extent, parts
	p.done.Store(0)
	p.post(uint64(parts))
	for _, h := range p.helpers[:parts-1] {
		p.wakeUp(h)
	}
	for mine := 0; ; mine++ {
		i, ok := p.claim(p.seq)
		if !ok {
			break
		}
		reclaimed = mine
		p.runBlock(i)
	}
	for spins := 1; p.done.Load() != int32(parts); spins++ {
		if spins%spinCheck == 0 {
			runtime.Gosched()
		}
	}
	if pv := p.panicked.Swap(nil); pv != nil {
		panic(pv.v)
	}
	return reclaimed
}

// post publishes a new op with the given number of unclaimed blocks.
func (p *pool) post(blocks uint64) {
	p.seq++
	p.state.Store(p.seq<<16 | blocks)
}

// wakeUp hands a parked helper its token.
func (p *pool) wakeUp(h *helper) {
	if h.sleeping.Swap(false) {
		h.wake <- struct{}{}
	}
}

// claim takes one unclaimed block of op seq, if any is left.
func (p *pool) claim(seq uint64) (int, bool) {
	for {
		v := p.state.Load()
		if v>>16 != seq || v&0xffff == 0 {
			return 0, false
		}
		if p.state.CompareAndSwap(v, v-1) {
			return int(v&0xffff) - 1, true
		}
	}
}

// runBlock runs block i of the current op and counts it done; a panic is
// kept for the caller instead of killing the process from a helper.
func (p *pool) runBlock(i int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked.CompareAndSwap(nil, &panicValue{r})
		}
		p.done.Add(1)
	}()
	t := &p.task
	t.span(t.extent*i/t.parts, t.extent*(i+1)/t.parts)
}

// help is a helper goroutine: wait for an op newer than the last one
// seen, claim its blocks until none is left, repeat until closed.
func (p *pool) help(h *helper) {
	defer p.wg.Done()
	var seen uint64
	for {
		seen = p.await(h, seen) >> 16
		if p.closed.Load() {
			return
		}
		for {
			i, ok := p.claim(seen)
			if !ok {
				break
			}
			p.runBlock(i)
		}
	}
}

// await polls state until it names an op newer than seen, for up to
// spinWindow, then parks on the helper's wake channel.
func (p *pool) await(h *helper, seen uint64) uint64 {
	start := time.Now()
	for i := 1; ; i++ {
		if v := p.state.Load(); v>>16 != seen {
			return v
		}
		if i%spinCheck == 0 {
			if time.Since(start) > spinWindow {
				break
			}
			runtime.Gosched()
		}
	}
	for {
		h.sleeping.Store(true)
		if v := p.state.Load(); v>>16 != seen {
			if !h.sleeping.CompareAndSwap(true, false) {
				<-h.wake // a poster cleared the flag: its token is coming
			}
			return v
		}
		<-h.wake
		if v := p.state.Load(); v>>16 != seen {
			return v
		}
	}
}

// close stops every helper and returns once all of them have exited.
func (p *pool) close() {
	p.closed.Store(true)
	p.post(0)
	for _, h := range p.helpers {
		p.wakeUp(h)
	}
	p.wg.Wait()
}

// kernel names one splittable loop of the package; task.span dispatches
// on it. A descriptor rather than a closure, so a split allocates
// nothing.
type kernel uint8

const (
	kMMForward    kernel = iota // out = x·y (+ z), rows
	kMMGradA                    // out ⊕= x·yᵀ, rows of out
	kMMGradB                    // out += xᵀ·y, rows of out (blocks of k)
	kBiasGrad                   // out[j] += Σ_i x[i][j], columns j
	kTanh                       // out = tanh(x)
	kTanhGrad                   // out ⊕= x·(1 − y²)
	kSoftplus                   // out = softplus(x)
	kSoftplusGrad               // out ⊕= x / (1 + e^−y)
	kAdd                        // out = x + y
	kMul                        // out = x · y
	kGradAdd                    // out ⊕= x
	kMulGrad                    // out ⊕= x · y
	kCopyCols                   // out[i][off:off+k] = x[i], rows
	kGradCols                   // out[i] ⊕= x[i][off:off+k], rows
	kGather                     // out[i] = x[idx[i]], rows
	kGatherGrad                 // out[i] ⊕= x[idx[i]], rows
	kScatterRows                // out[idx[i]] += x[i] (cleared first if first), destination rows
	kScatterAdd                 // out = y + 0, out[idx[i]] = y[idx[i]] + (x[i] + 0)
)

// task is one split op: a kernel, its operands and the axis extent it
// splits over. ⊕= above is gradPut: a store of v + 0 when first is set,
// else an accumulation. Every block runs the serial loop over its own
// output elements, so each element sees the same operations in the same
// order at any width.
type task struct {
	op      kernel
	out     []float64
	x, y, z []float64
	idx     []int32
	m, k, n int // matrix dims; n doubles as a row width
	off     int
	first   bool
	extent  int // split-axis length, set by pool.run
	parts   int
}

// span runs the task's kernel over split-axis indices [lo, hi).
func (t *task) span(lo, hi int) {
	k, n := t.k, t.n
	switch t.op {
	case kMMForward:
		mmForward(t.out[lo*n:hi*n], t.x[lo*k:hi*k], t.y, t.z, hi-lo, k, n)
	case kMMGradA:
		mmGradA(t.out[lo*k:hi*k], t.y, t.x[lo*n:hi*n], hi-lo, k, n, t.first)
	case kMMGradB:
		mmGradB(t.out, t.x, t.y, t.m, k, n, lo, hi)
	case kBiasGrad:
		biasGrad(t.out, t.x, t.m, n, lo, hi)
	case kTanh:
		od, ad := t.out[lo:hi], t.x[lo:hi]
		for i, v := range ad {
			od[i] = math.Tanh(v)
		}
	case kTanhGrad:
		ag, og, yd := t.out[lo:hi], t.x[lo:hi], t.y[lo:hi]
		for i, g := range og {
			y := yd[i]
			gradPut(&ag[i], g*(1-y*y), t.first)
		}
	case kSoftplus:
		od, ad := t.out[lo:hi], t.x[lo:hi]
		for i, v := range ad {
			od[i] = softplus(v)
		}
	case kSoftplusGrad:
		ag, og, ad := t.out[lo:hi], t.x[lo:hi], t.y[lo:hi]
		for i, g := range og {
			gradPut(&ag[i], g/(1+math.Exp(-ad[i])), t.first)
		}
	case kAdd:
		od, ad, bd := t.out[lo:hi], t.x[lo:hi], t.y[lo:hi]
		for i := range od {
			od[i] = ad[i] + bd[i]
		}
	case kMul:
		od, ad, bd := t.out[lo:hi], t.x[lo:hi], t.y[lo:hi]
		for i := range od {
			od[i] = ad[i] * bd[i]
		}
	case kGradAdd:
		gradAdd(t.out[lo:hi], t.x[lo:hi], t.first)
	case kMulGrad:
		mulGrad(t.out[lo:hi], t.x[lo:hi], t.y[lo:hi], t.first)
	case kCopyCols:
		for i := lo; i < hi; i++ {
			copy(t.out[i*n+t.off:i*n+t.off+k], t.x[i*k:(i+1)*k])
		}
	case kGradCols:
		for i := lo; i < hi; i++ {
			gradAdd(t.out[i*k:(i+1)*k], t.x[i*n+t.off:i*n+t.off+k], t.first)
		}
	case kGather:
		for i := lo; i < hi; i++ {
			r := int(t.idx[i])
			copy(t.out[i*n:(i+1)*n], t.x[r*n:(r+1)*n])
		}
	case kGatherGrad:
		for i := lo; i < hi; i++ {
			r := int(t.idx[i])
			gradAdd(t.out[i*n:(i+1)*n], t.x[r*n:(r+1)*n], t.first)
		}
	case kScatterRows:
		if t.first {
			clear(t.out[lo*n : hi*n])
		}
		for i, r := range t.idx {
			if r := int(r); r >= lo && r < hi {
				addTo(t.out[r*n:(r+1)*n], t.x[i*n:(i+1)*n])
			}
		}
	case kScatterAdd:
		od, ad := t.out[lo*n:hi*n], t.y[lo*n:hi*n]
		for i, x := range ad {
			od[i] = x + 0
		}
		for i, r := range t.idx {
			if r := int(r); r >= lo && r < hi {
				o, ar, vr := t.out[r*n:(r+1)*n], t.y[r*n:(r+1)*n], t.x[i*n:(i+1)*n]
				for j, x := range vr {
					o[j] = ar[j] + (x + 0)
				}
			}
		}
	}
}

// split runs t over [0, extent): in contiguous blocks across the
// workspace's pool when the op's work reaches the split threshold, else
// in one serial call on this goroutine.
func (tp *Tape) split(t *task, extent, work int) {
	if ws := tp.ws; ws != nil && ws.pool != nil && extent > 1 && work >= ws.pool.minSplit {
		ws.splits++
		ws.reclaimed += int64(ws.pool.run(t, extent))
		return
	}
	t.span(0, extent)
}
