// Package simt provides the warp-level SIMT execution substrate the GPU
// model runs on: 32-lane activity masks, the warp operation IR that
// kernels emit (compute, load, store, atomic), and coroutine-backed warp
// contexts. Kernels are ordinary Go functions written in lockstep
// warp-level style. A warp suspends on an operation whose result it
// reads (a load, a wait, a returning atomic) until the timing model
// completes it, mirroring an in-order GPU warp that hides latency
// through multithreading rather than per-warp ILP; the operations it
// only issues run ahead in a small per-warp buffer (see WarpRun).
package simt

import (
	"fmt"
	"iter"
	"math/bits"

	"coolpim/internal/mem"
)

// WarpSize is the number of lanes per warp (Table IV: 32 threads/warp).
const WarpSize = 32

// Mask is a 32-lane activity mask; bit i = lane i active.
type Mask uint32

// FullMask has every lane active.
const FullMask Mask = 0xFFFFFFFF

// LaneMask returns a mask with only lane i active.
func LaneMask(i int) Mask {
	if i < 0 || i >= WarpSize {
		panic(laneError(i))
	}
	return 1 << uint(i)
}

// laneError is LaneMask's panic value: an out-of-range lane. It formats
// its message only when printed; a fmt.Sprintf in LaneMask itself would
// push LaneMask and every Mask method built on it past the inliner's
// budget, and they run once per lane of every warp op.
type laneError int

func (e laneError) Error() string { return fmt.Sprintf("simt: lane %d out of range", int(e)) }

// FirstN returns a mask with lanes 0..n-1 active.
func FirstN(n int) Mask {
	switch {
	case n <= 0:
		return 0
	case n >= WarpSize:
		return FullMask
	default:
		return Mask(1<<uint(n) - 1)
	}
}

// Count returns the number of active lanes.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// Any reports whether any lane is active.
func (m Mask) Any() bool { return m != 0 }

// Lane reports whether lane i is active.
func (m Mask) Lane(i int) bool { return m&LaneMask(i) != 0 }

// Set returns the mask with lane i active.
func (m Mask) Set(i int) Mask { return m | LaneMask(i) }

// Clear returns the mask with lane i inactive.
func (m Mask) Clear(i int) Mask { return m &^ LaneMask(i) }

// Divergent reports whether the mask is partially active — the warp has
// diverged. (A fully inactive mask is not issued at all.)
func (m Mask) Divergent() bool { return m != 0 && m != FullMask }

// OpKind classifies warp operations.
type OpKind uint8

// Warp operation kinds.
const (
	OpCompute   OpKind = iota // ALU work: occupies the warp for Cycles
	OpLoad                    // per-lane 32-bit global loads (blocking)
	OpLoadAsync               // per-lane loads; warp continues, result claimed by OpWait
	OpWait                    // block until the outstanding async load completes
	OpStore                   // per-lane 32-bit global stores
	OpAtomic                  // per-lane read-modify-write (PIM-offloadable)
)

func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpLoadAsync:
		return "load-async"
	case OpWait:
		return "wait"
	case OpStore:
		return "store"
	case OpAtomic:
		return "atomic"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one warp-level operation. The executing timing model fills Out
// and OutOK before it completes an op whose results the kernel reads,
// so kernels observe memory results exactly when the simulated hardware
// would deliver them. Ops live in their warp's buffer (WarpRun): the
// kernel's Ctx builds each op in place, and an op handed out by Next
// stays valid until the next call of Next.
type Op struct {
	Kind   OpKind
	Cycles int  // OpCompute: duration in core cycles
	Mask   Mask // active lanes

	// Addr, Val and Cmp hold meaningful values in the active lanes only.
	Addr [WarpSize]uint64 // per-lane byte addresses
	Val  [WarpSize]uint32 // store/atomic operands
	Cmp  [WarpSize]uint32 // CAS compare operands

	Atomic mem.AtomicOp
	// NeedReturn: the kernel consumes the atomic's old value, so a PIM
	// offload must use the with-return packet format (Table I).
	NeedReturn bool

	// Results, filled by the executor in the active lanes.
	Out   [WarpSize]uint32
	OutOK [WarpSize]bool
}

// setAddr sets the address of every active lane: lane l names word
// idx[l] of buf.
func (op *Op) setAddr(buf mem.Buffer, idx *[WarpSize]uint32) {
	for l := 0; l < WarpSize; l++ {
		if op.Mask.Lane(l) {
			op.Addr[l] = buf.Addr(int(idx[l]))
		}
	}
}

// Ctx is the per-warp execution context handed to kernel functions.
// Its memory operations name each lane's word as a buffer plus a
// per-lane word index; only the active lanes' indices are read.
type Ctx struct {
	// Identity of this warp within the launch.
	BlockID     int // CUDA block index
	WarpInBlock int // warp index within the block
	GlobalWarp  int // warp index within the whole grid
	BlockDim    int // threads per block
	GridDim     int // blocks in grid

	run *WarpRun

	asyncLive bool
	asyncMask Mask
}

// ThreadID returns the global thread id of a lane of this warp.
func (c *Ctx) ThreadID(lane int) int {
	return c.BlockID*c.BlockDim + c.WarpInBlock*WarpSize + lane
}

// TotalThreads returns the number of threads in the launch.
func (c *Ctx) TotalThreads() int { return c.GridDim * c.BlockDim }

// slot claims the warp's next free op slot for an op of kind over mask.
func (c *Ctx) slot(kind OpKind, mask Mask) *Op {
	r := c.run
	op := &r.ops[r.n]
	r.n++
	op.Kind, op.Mask = kind, mask
	return op
}

// post lets the warp run on past an op whose results it does not read,
// unless that op filled the buffer.
func (c *Ctx) post() {
	if c.run.n == opSlots {
		c.suspend()
	}
}

// suspend parks the warp until Next has handed out every buffered op
// and the executor has completed the last of them.
func (c *Ctx) suspend() {
	if !c.run.yield(struct{}{}) {
		// The runner was stopped; unwind the kernel goroutine.
		panic(stopped{})
	}
}

type stopped struct{}

// Compute occupies the warp for n core cycles of ALU work.
func (c *Ctx) Compute(n int) {
	if n <= 0 {
		return
	}
	op := c.slot(OpCompute, FullMask)
	op.Cycles = n
	c.post()
}

// Load issues per-lane 32-bit loads of buf[idx[l]] for the active lanes
// and returns the loaded values (indexed by lane; inactive lanes are
// zero).
func (c *Ctx) Load(mask Mask, buf mem.Buffer, idx *[WarpSize]uint32) [WarpSize]uint32 {
	if !mask.Any() {
		return [WarpSize]uint32{}
	}
	op := c.slot(OpLoad, mask)
	op.setAddr(buf, idx)
	op.Out = [WarpSize]uint32{}
	c.suspend()
	return op.Out
}

// LoadAsync issues per-lane loads of buf[idx[l]] without blocking the
// warp — the software-pipelining idiom of optimized GPU kernels, where
// the next iteration's data is fetched while the current one is
// processed. At most one async load may be outstanding; its values are
// claimed with Wait. Issuing a second LoadAsync before Wait panics.
func (c *Ctx) LoadAsync(mask Mask, buf mem.Buffer, idx *[WarpSize]uint32) {
	if c.asyncLive {
		panic("simt: LoadAsync with an async load already outstanding")
	}
	if !mask.Any() {
		c.asyncMask = 0
		return
	}
	c.asyncLive = true
	c.asyncMask = mask
	op := c.slot(OpLoadAsync, mask)
	op.setAddr(buf, idx)
	c.post()
}

// Wait blocks until the outstanding async load completes and returns its
// values. Calling Wait after an empty-mask LoadAsync returns zeros
// without suspending.
func (c *Ctx) Wait() [WarpSize]uint32 {
	if !c.asyncLive {
		if c.asyncMask == 0 {
			return [WarpSize]uint32{}
		}
		panic("simt: Wait without outstanding LoadAsync")
	}
	c.asyncLive = false
	op := c.slot(OpWait, c.asyncMask)
	op.Out = [WarpSize]uint32{}
	c.suspend()
	return op.Out
}

// Store issues per-lane 32-bit stores of val[l] to buf[idx[l]] for the
// active lanes.
func (c *Ctx) Store(mask Mask, buf mem.Buffer, idx, val *[WarpSize]uint32) {
	if !mask.Any() {
		return
	}
	op := c.slot(OpStore, mask)
	op.setAddr(buf, idx)
	op.Val = *val
	c.post()
}

// Atomic issues per-lane read-modify-write operations on buf[idx[l]]
// with operand val[l] and, for CAS, compare value cmp[l] (a nil cmp
// compares against zero). If needReturn is true the warp suspends until
// the old values and success flags return; otherwise the results are
// zero, the warp runs on, and the op can offload as a no-return PIM
// packet.
func (c *Ctx) Atomic(aop mem.AtomicOp, mask Mask, buf mem.Buffer, idx, val, cmp *[WarpSize]uint32, needReturn bool) (old [WarpSize]uint32, ok [WarpSize]bool) {
	if !mask.Any() {
		return old, ok
	}
	op := c.slot(OpAtomic, mask)
	op.Atomic, op.NeedReturn = aop, needReturn
	op.setAddr(buf, idx)
	op.Val = *val
	if cmp != nil {
		op.Cmp = *cmp
	} else {
		op.Cmp = [WarpSize]uint32{}
	}
	if !needReturn {
		c.post()
		return old, ok
	}
	op.Out, op.OutOK = [WarpSize]uint32{}, [WarpSize]bool{}
	c.suspend()
	return op.Out, op.OutOK
}

// KernelFunc is a warp-level kernel body: the code all warps of a launch
// execute. A kernel reads memory only through the ops it issues (Load,
// Wait and returning Atomics), never directly; that is what lets its warp
// run ahead of the executor.
type KernelFunc func(*Ctx)

// opSlots is the size of a warp's op buffer: how many ops whose results
// the kernel does not read it issues before it suspends. A third slot
// halves the resumes of some workloads but measured no end-to-end gain
// (DESIGN.md §6).
const opSlots = 2

// WarpRun is a suspended warp: a pull-style coroutine producing Ops.
//
// The warp runs ahead over the ops whose results its kernel never reads
// (Compute, Store, LoadAsync and no-return Atomics): they go into a
// fixed buffer of opSlots ops, and the coroutine suspends only on a
// Load, a Wait, a returning Atomic or a full buffer. Next hands the
// buffered ops out one at a time, in issue order, before it resumes the
// coroutine, and drains them after the kernel returns, so an executor
// sees exactly the op sequence, one op per Next, that a warp suspending
// on every op would produce. Because a kernel reads memory only through
// the ops it issues, running its Go code earlier changes no result: the
// op it blocks on executes after every op buffered before it.
type WarpRun struct {
	ctx Ctx
	ops [opSlots]Op
	n   int // ops the kernel has buffered since it was last resumed
	out int // ops Next has handed out of those

	yield    func(struct{}) bool
	next     func() (struct{}, bool)
	stop     func()
	returned bool // the kernel function has returned
	done     bool // Next has reported the end, or Stop ran
}

// StartWarp begins executing kernel f for the warp identified by ctx.
// The returned WarpRun yields the warp's operations one at a time.
func StartWarp(f KernelFunc, ctx Ctx) *WarpRun {
	r := &WarpRun{ctx: ctx}
	r.ctx.run = r
	seq := func(yield func(struct{}) bool) {
		defer func() {
			// A Stop() during execution unwinds with the sentinel;
			// anything else propagates.
			if e := recover(); e != nil {
				if _, ok := e.(stopped); !ok {
					panic(e)
				}
			}
		}()
		r.yield = yield
		f(&r.ctx)
	}
	r.next, r.stop = iter.Pull(iter.Seq[struct{}](seq))
	return r
}

// Next returns the warp's next operation: a buffered one if any is left,
// else whatever the kernel issues when resumed. It returns nil, false
// once the kernel function has returned and its buffered ops are all
// handed out. The caller must fill op.Out/op.OutOK (for loads and
// returning atomics) before calling Next again.
func (w *WarpRun) Next() (*Op, bool) {
	if w.out == w.n {
		if w.returned || w.done {
			w.done = true
			return nil, false
		}
		w.out, w.n = 0, 0
		if _, ok := w.next(); !ok {
			w.returned = true
		}
		if w.n == 0 {
			w.done = true
			return nil, false
		}
	}
	op := &w.ops[w.out]
	w.out++
	return op, true
}

// Done reports whether the warp has finished: Next has reported the end,
// or the warp was stopped.
func (w *WarpRun) Done() bool { return w.done }

// Stop abandons the warp, dropping its buffered ops and releasing its
// coroutine.
func (w *WarpRun) Stop() {
	if !w.done {
		w.done = true
		w.out, w.n = 0, 0
		w.stop()
	}
}
