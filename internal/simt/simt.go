// Package simt provides the warp-level SIMT execution substrate the GPU
// model runs on: 32-lane activity masks, the warp operation IR that
// kernels emit (compute, load, store, atomic), and coroutine-backed warp
// contexts. Kernels are ordinary Go functions written in lockstep
// warp-level style; each memory operation suspends the warp until the
// timing model completes it, exactly mirroring an in-order GPU warp that
// hides latency through multithreading rather than per-warp ILP.
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
// and OutOK before resuming the warp, so kernels observe memory results
// exactly when the simulated hardware would deliver them.
type Op struct {
	Kind   OpKind
	Cycles int  // OpCompute: duration in core cycles
	Mask   Mask // active lanes

	Addr [WarpSize]uint64 // per-lane byte addresses
	Val  [WarpSize]uint32 // store/atomic operands
	Cmp  [WarpSize]uint32 // CAS compare operands

	Atomic mem.AtomicOp
	// NeedReturn: the kernel consumes the atomic's old value, so a PIM
	// offload must use the with-return packet format (Table I).
	NeedReturn bool

	// Results, filled by the executor.
	Out   [WarpSize]uint32
	OutOK [WarpSize]bool
}

// Ctx is the per-warp execution context handed to kernel functions.
type Ctx struct {
	// Identity of this warp within the launch.
	BlockID     int // CUDA block index
	WarpInBlock int // warp index within the block
	GlobalWarp  int // warp index within the whole grid
	BlockDim    int // threads per block
	GridDim     int // blocks in grid

	yield func(*Op) bool
	op    Op

	asyncLive bool
	asyncMask Mask
}

// ThreadID returns the global thread id of a lane of this warp.
func (c *Ctx) ThreadID(lane int) int {
	return c.BlockID*c.BlockDim + c.WarpInBlock*WarpSize + lane
}

// TotalThreads returns the number of threads in the launch.
func (c *Ctx) TotalThreads() int { return c.GridDim * c.BlockDim }

func (c *Ctx) emit() {
	if !c.yield(&c.op) {
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
	c.op = Op{Kind: OpCompute, Cycles: n, Mask: FullMask}
	c.emit()
}

// Load issues per-lane 32-bit loads for the active lanes and returns the
// loaded values (indexed by lane; inactive lanes are zero).
func (c *Ctx) Load(mask Mask, addr [WarpSize]uint64) [WarpSize]uint32 {
	if !mask.Any() {
		return [WarpSize]uint32{}
	}
	c.op = Op{Kind: OpLoad, Mask: mask, Addr: addr}
	c.emit()
	return c.op.Out
}

// LoadAsync issues per-lane loads without blocking the warp — the
// software-pipelining idiom of optimized GPU kernels, where the next
// iteration's data is fetched while the current one is processed. At
// most one async load may be outstanding; its values are claimed with
// Wait. Issuing a second LoadAsync before Wait panics.
func (c *Ctx) LoadAsync(mask Mask, addr [WarpSize]uint64) {
	if c.asyncLive {
		panic("simt: LoadAsync with an async load already outstanding")
	}
	if !mask.Any() {
		c.asyncMask = 0
		return
	}
	c.asyncLive = true
	c.asyncMask = mask
	c.op = Op{Kind: OpLoadAsync, Mask: mask, Addr: addr}
	c.emit()
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
	c.op = Op{Kind: OpWait, Mask: c.asyncMask}
	c.emit()
	return c.op.Out
}

// Load1 loads a single word on lane 0. Convenient for warp-centric
// kernels reading shared scalars.
func (c *Ctx) Load1(addr uint64) uint32 {
	var a [WarpSize]uint64
	a[0] = addr
	return c.Load(LaneMask(0), a)[0]
}

// Store issues per-lane 32-bit stores for the active lanes.
func (c *Ctx) Store(mask Mask, addr [WarpSize]uint64, val [WarpSize]uint32) {
	if !mask.Any() {
		return
	}
	c.op = Op{Kind: OpStore, Mask: mask, Addr: addr, Val: val}
	c.emit()
}

// Atomic issues per-lane read-modify-write operations. If needReturn is
// true the old values (and success flags) are returned; otherwise the
// results are unspecified and the op can offload as a no-return PIM
// packet.
func (c *Ctx) Atomic(op mem.AtomicOp, mask Mask, addr [WarpSize]uint64, val, cmp [WarpSize]uint32, needReturn bool) ([WarpSize]uint32, [WarpSize]bool) {
	if !mask.Any() {
		return [WarpSize]uint32{}, [WarpSize]bool{}
	}
	c.op = Op{Kind: OpAtomic, Mask: mask, Addr: addr, Val: val, Cmp: cmp, Atomic: op, NeedReturn: needReturn}
	c.emit()
	return c.op.Out, c.op.OutOK
}

// KernelFunc is a warp-level kernel body: the code all warps of a launch
// execute.
type KernelFunc func(*Ctx)

// WarpRun is a suspended warp: a pull-style coroutine producing Ops.
type WarpRun struct {
	ctx  *Ctx
	next func() (*Op, bool)
	stop func()
	done bool
}

// StartWarp begins executing kernel f for the warp identified by ctx.
// The returned WarpRun yields the warp's operations one at a time.
func StartWarp(f KernelFunc, ctx Ctx) *WarpRun {
	r := &WarpRun{ctx: &ctx}
	seq := func(yield func(*Op) bool) {
		defer func() {
			// A Stop() during execution unwinds with the sentinel;
			// anything else propagates.
			if e := recover(); e != nil {
				if _, ok := e.(stopped); !ok {
					panic(e)
				}
			}
		}()
		r.ctx.yield = yield
		f(r.ctx)
	}
	r.next, r.stop = iter.Pull(iter.Seq[*Op](seq))
	return r
}

// Next resumes the warp until it emits its next operation. It returns
// nil, false when the kernel function has returned. The caller must fill
// op.Out/op.OutOK (for loads and returning atomics) before calling Next
// again.
func (w *WarpRun) Next() (*Op, bool) {
	if w.done {
		return nil, false
	}
	op, ok := w.next()
	if !ok {
		w.done = true
		return nil, false
	}
	return op, true
}

// Done reports whether the warp has finished.
func (w *WarpRun) Done() bool { return w.done }

// Stop abandons the warp, releasing its coroutine.
func (w *WarpRun) Stop() {
	if !w.done {
		w.done = true
		w.stop()
	}
}
