package simt

import (
	"fmt"
	"testing"
	"testing/quick"

	"coolpim/internal/mem"
)

func TestMaskBasics(t *testing.T) {
	if FullMask.Count() != 32 || !FullMask.Any() || FullMask.Divergent() {
		t.Error("FullMask properties wrong")
	}
	var m Mask
	if m.Any() || m.Count() != 0 || m.Divergent() {
		t.Error("zero mask properties wrong")
	}
	m = m.Set(3).Set(17)
	if m.Count() != 2 || !m.Lane(3) || !m.Lane(17) || m.Lane(4) {
		t.Error("Set/Lane wrong")
	}
	if !m.Divergent() {
		t.Error("partial mask not divergent")
	}
	m = m.Clear(3)
	if m.Lane(3) || m.Count() != 1 {
		t.Error("Clear wrong")
	}
}

func TestFirstN(t *testing.T) {
	if FirstN(0) != 0 || FirstN(-3) != 0 {
		t.Error("FirstN(<=0) not empty")
	}
	if FirstN(32) != FullMask || FirstN(100) != FullMask {
		t.Error("FirstN(>=32) not full")
	}
	if FirstN(5).Count() != 5 || !FirstN(5).Lane(4) || FirstN(5).Lane(5) {
		t.Error("FirstN(5) wrong")
	}
}

func TestMaskCountProperty(t *testing.T) {
	f := func(v uint32) bool {
		m := Mask(v)
		n := 0
		for i := 0; i < WarpSize; i++ {
			if m.Lane(i) {
				n++
			}
		}
		return n == m.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLaneMaskPanics checks the lane range check and its message: the
// panic value prints exactly as the formatted string it replaced, so
// users and runner.RunPanicError see no difference.
func TestLaneMaskPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
		want string
	}{
		{"LaneMask(32)", func() { LaneMask(32) }, "simt: lane 32 out of range"},
		{"LaneMask(-1)", func() { LaneMask(-1) }, "simt: lane -1 out of range"},
		{"Lane(32)", func() { FullMask.Lane(32) }, "simt: lane 32 out of range"},
		{"Set(-1)", func() { Mask(0).Set(-1) }, "simt: lane -1 out of range"},
		{"Clear(40)", func() { FullMask.Clear(40) }, "simt: lane 40 out of range"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s did not panic", tc.name)
				} else if got := fmt.Sprint(r); got != tc.want {
					t.Errorf("%s panicked with %q, want %q", tc.name, got, tc.want)
				}
			}()
			tc.fn()
		}()
	}
}

func TestThreadID(t *testing.T) {
	c := Ctx{BlockID: 2, WarpInBlock: 1, BlockDim: 128, GridDim: 4}
	if got := c.ThreadID(5); got != 2*128+32+5 {
		t.Errorf("ThreadID(5) = %d", got)
	}
	if c.TotalThreads() != 512 {
		t.Errorf("TotalThreads = %d", c.TotalThreads())
	}
}

// drain pulls every op from a warp, servicing loads/atomics with a
// functional memory and returning the op trace.
func drain(t *testing.T, f KernelFunc, space *mem.Space) []Op {
	t.Helper()
	var trace []Op
	w := StartWarp(f, Ctx{BlockDim: 32, GridDim: 1})
	for {
		op, ok := w.Next()
		if !ok {
			break
		}
		trace = append(trace, *op)
		if space == nil {
			continue
		}
		for lane := 0; lane < WarpSize; lane++ {
			if !op.Mask.Lane(lane) {
				continue
			}
			switch op.Kind {
			case OpLoad:
				op.Out[lane] = space.Load32(op.Addr[lane])
			case OpStore:
				space.Store32(op.Addr[lane], op.Val[lane])
			case OpAtomic:
				old, ok := space.Atomic(op.Atomic, op.Addr[lane], op.Val[lane], op.Cmp[lane])
				op.Out[lane], op.OutOK[lane] = old, ok
			}
		}
	}
	return trace
}

// lanes returns the per-lane word indices base, base+1, ..., base+31.
func lanes(base uint32) [WarpSize]uint32 {
	var idx [WarpSize]uint32
	for l := range idx {
		idx[l] = base + uint32(l)
	}
	return idx
}

func TestKernelOpSequence(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 64, false)
	for i := 0; i < 64; i++ {
		s.Store32(buf.Addr(i), uint32(i*10))
	}
	var observed [WarpSize]uint32
	kernel := func(c *Ctx) {
		c.Compute(4)
		idx := lanes(0)
		vals := c.Load(FullMask, buf, &idx)
		observed = vals
		var out [WarpSize]uint32
		for l := 0; l < WarpSize; l++ {
			out[l] = vals[l] + 1
		}
		idx = lanes(32)
		c.Store(FullMask, buf, &idx, &out)
	}
	trace := drain(t, kernel, s)
	if len(trace) != 3 {
		t.Fatalf("trace has %d ops, want 3", len(trace))
	}
	if trace[0].Kind != OpCompute || trace[0].Cycles != 4 {
		t.Errorf("op0 = %+v", trace[0])
	}
	if trace[1].Kind != OpLoad || trace[2].Kind != OpStore {
		t.Errorf("ops = %v, %v", trace[1].Kind, trace[2].Kind)
	}
	if trace[1].Addr[5] != buf.Addr(5) || trace[2].Addr[5] != buf.Addr(37) {
		t.Errorf("lane 5 addresses = %#x, %#x, want %#x, %#x",
			trace[1].Addr[5], trace[2].Addr[5], buf.Addr(5), buf.Addr(37))
	}
	if observed[7] != 70 {
		t.Errorf("lane 7 loaded %d, want 70", observed[7])
	}
	if got := s.Load32(buf.Addr(39)); got != 71 {
		t.Errorf("stored value = %d, want 71", got)
	}
}

func TestAtomicThroughKernel(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("ctr", 8, true)
	kernel := func(c *Ctx) {
		var idx, val [WarpSize]uint32 // all lanes hit one counter
		for l := 0; l < WarpSize; l++ {
			val[l] = 1
		}
		old, _ := c.Atomic(mem.AtomicAdd, FullMask, buf, &idx, &val, nil, true)
		_ = old
	}
	trace := drain(t, kernel, s)
	if len(trace) != 1 || trace[0].Kind != OpAtomic || !trace[0].NeedReturn {
		t.Fatalf("trace = %+v", trace)
	}
	if got := s.Load32(buf.Addr(0)); got != 32 {
		t.Errorf("counter = %d, want 32 (one add per lane)", got)
	}
}

func TestEmptyMaskOpsSkipped(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 8, false)
	kernel := func(c *Ctx) {
		var idx, val [WarpSize]uint32
		c.Load(0, buf, &idx)
		c.Store(0, buf, &idx, &val)
		c.Atomic(mem.AtomicAdd, 0, buf, &idx, &val, nil, false)
		c.Compute(0)
		c.Compute(-1)
	}
	trace := drain(t, kernel, nil)
	if len(trace) != 0 {
		t.Errorf("empty-mask ops emitted: %d", len(trace))
	}
}

// TestWarpRunStop: a stopped warp never runs on. The kernel's Load
// blocks, so the warp is parked before it and cannot reach the mark.
func TestWarpRunStop(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 8, false)
	reached := false
	kernel := func(c *Ctx) {
		var idx [WarpSize]uint32
		c.Compute(1)
		c.Load(LaneMask(0), buf, &idx)
		reached = true // must not run after Stop
	}
	w := StartWarp(kernel, Ctx{})
	if _, ok := w.Next(); !ok {
		t.Fatal("first op missing")
	}
	w.Stop()
	if !w.Done() {
		t.Error("not done after Stop")
	}
	if _, ok := w.Next(); ok {
		t.Error("Next after Stop returned an op")
	}
	if reached {
		t.Error("kernel continued past Stop")
	}
}

func TestWarpRunCompletion(t *testing.T) {
	w := StartWarp(func(c *Ctx) { c.Compute(1) }, Ctx{})
	w.Next()
	if _, ok := w.Next(); ok {
		t.Error("op after kernel return")
	}
	if !w.Done() {
		t.Error("Done() false after completion")
	}
	// Further calls stay terminal.
	if _, ok := w.Next(); ok {
		t.Error("Next not sticky after done")
	}
}

// TestRunAheadSuspendsOnlyOnReads pins the run-ahead rule: the warp runs
// on past Compute, LoadAsync and no-return Atomics, and suspends on Load,
// Wait and returning Atomics. progress records how far the kernel got,
// so after each Next it shows where the warp is parked.
func TestRunAheadSuspendsOnlyOnReads(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 8, false)
	progress := 0
	kernel := func(c *Ctx) {
		var idx, val [WarpSize]uint32
		c.Compute(1)
		progress = 1
		c.Load(FullMask, buf, &idx)
		progress = 2
		c.LoadAsync(FullMask, buf, &idx)
		progress = 3
		c.Wait()
		progress = 4
		c.Atomic(mem.AtomicAdd, FullMask, buf, &idx, &val, nil, false)
		progress = 5
		c.Atomic(mem.AtomicAdd, FullMask, buf, &idx, &val, nil, true)
		progress = 6
	}
	w := StartWarp(kernel, Ctx{})
	for i, want := range []struct {
		kind     OpKind
		progress int // how far the kernel ran before this op was handed out
	}{
		{OpCompute, 1}, {OpLoad, 1},
		{OpLoadAsync, 3}, {OpWait, 3},
		{OpAtomic, 5}, {OpAtomic, 5},
	} {
		op, ok := w.Next()
		if !ok {
			t.Fatalf("op %d missing", i)
		}
		if op.Kind != want.kind || progress != want.progress {
			t.Errorf("op %d: %v with the kernel at %d, want %v at %d", i, op.Kind, progress, want.kind, want.progress)
		}
	}
	if _, ok := w.Next(); ok || progress != 6 {
		t.Errorf("end: op handed out or kernel at %d, want the end at 6", progress)
	}
}

// TestRunAheadFullBufferSuspends: a kernel that never reads a result
// still suspends every opSlots ops, so a warp's run-ahead is bounded.
func TestRunAheadFullBufferSuspends(t *testing.T) {
	issued := 0
	kernel := func(c *Ctx) {
		for i := 1; i <= 3*opSlots; i++ {
			c.Compute(i)
			issued = i
		}
	}
	w := StartWarp(kernel, Ctx{})
	for k := 1; k <= 3*opSlots; k++ {
		op, ok := w.Next()
		if !ok {
			t.Fatalf("op %d missing", k)
		}
		if op.Cycles != k {
			t.Errorf("op %d has %d cycles: out of issue order", k, op.Cycles)
		}
		// The op that fills the buffer suspends the warp before it
		// records its issue.
		if want := ((k-1)/opSlots+1)*opSlots - 1; issued != want {
			t.Errorf("after op %d the kernel issued %d, want %d", k, issued, want)
		}
	}
	if _, ok := w.Next(); ok {
		t.Error("op after the last")
	}
}

// TestRunAheadReturnDrains: ops buffered when the kernel returns are
// still handed out, in order, and Done turns true only once Next has
// reported the end — the functional harness in internal/kernels polls
// Done between Nexts and counts a warp finished on Next's end alone.
func TestRunAheadReturnDrains(t *testing.T) {
	returned := false
	kernel := func(c *Ctx) {
		for i := 1; i < opSlots; i++ {
			c.Compute(i)
		}
		returned = true
	}
	w := StartWarp(kernel, Ctx{})
	for k := 1; k < opSlots; k++ {
		op, ok := w.Next()
		if !ok || op.Cycles != k {
			t.Fatalf("op %d = %+v, %v; want Compute(%d)", k, op, ok, k)
		}
		if !returned {
			t.Errorf("op %d: the kernel has not run ahead to its return", k)
		}
		if w.Done() {
			t.Errorf("Done before Next reported the end (op %d)", k)
		}
	}
	if _, ok := w.Next(); ok {
		t.Error("op after the buffered ones")
	}
	if !w.Done() {
		t.Error("Done() false after Next reported the end")
	}
}

// TestRunAheadStopDropsBuffered: Stop discards ops the kernel buffered
// but Next has not handed out.
func TestRunAheadStopDropsBuffered(t *testing.T) {
	kernel := func(c *Ctx) {
		for i := 1; i <= opSlots; i++ {
			c.Compute(i)
		}
	}
	w := StartWarp(kernel, Ctx{})
	if op, ok := w.Next(); !ok || op.Cycles != 1 {
		t.Fatalf("first op = %+v, %v", op, ok)
	}
	w.Stop()
	if op, ok := w.Next(); ok {
		t.Errorf("Next after Stop handed out the buffered %+v", *op)
	}
}

func TestKernelPanicsPropagate(t *testing.T) {
	w := StartWarp(func(c *Ctx) { panic("kernel bug") }, Ctx{})
	defer func() {
		if recover() == nil {
			t.Error("kernel panic swallowed")
		}
	}()
	w.Next()
}

func TestManyWarpsIndependent(t *testing.T) {
	// 100 warps each write their own slot; interleaved pulls.
	s := mem.NewSpace(1 << 14)
	buf := s.Alloc("slots", 100, false)
	var runs []*WarpRun
	for i := 0; i < 100; i++ {
		i := i
		runs = append(runs, StartWarp(func(c *Ctx) {
			c.Compute(1)
			var idx, val [WarpSize]uint32
			idx[0], val[0] = uint32(i), uint32(i+1)
			c.Store(LaneMask(0), buf, &idx, &val)
		}, Ctx{GlobalWarp: i}))
	}
	live := len(runs)
	for live > 0 {
		for _, w := range runs {
			op, ok := w.Next()
			if !ok {
				continue
			}
			if op.Kind == OpStore {
				s.Store32(op.Addr[0], op.Val[0])
			}
		}
		live = 0
		for _, w := range runs {
			if !w.Done() {
				live++
			}
		}
	}
	for i := 0; i < 100; i++ {
		if got := s.Load32(buf.Addr(i)); got != uint32(i+1) {
			t.Fatalf("slot %d = %d", i, got)
		}
	}
}

func TestLoadAsyncWait(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 64, false)
	for i := 0; i < 64; i++ {
		s.Store32(buf.Addr(i), uint32(i*3))
	}
	var got [WarpSize]uint32
	kernel := func(c *Ctx) {
		idx := lanes(0)
		c.LoadAsync(FullMask, buf, &idx)
		c.Compute(5) // overlapped work
		got = c.Wait()
	}
	w := StartWarp(kernel, Ctx{BlockDim: 32, GridDim: 1})
	var asyncAddr [WarpSize]uint64
	var asyncMask Mask
	for {
		op, ok := w.Next()
		if !ok {
			break
		}
		switch op.Kind {
		case OpLoadAsync:
			asyncAddr, asyncMask = op.Addr, op.Mask
		case OpWait:
			for l := 0; l < WarpSize; l++ {
				if asyncMask.Lane(l) {
					op.Out[l] = s.Load32(asyncAddr[l])
				}
			}
		}
	}
	if got[7] != 21 {
		t.Errorf("lane 7 = %d, want 21", got[7])
	}
}

func TestLoadAsyncEmptyMask(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 8, false)
	ran := false
	kernel := func(c *Ctx) {
		var idx [WarpSize]uint32
		c.LoadAsync(0, buf, &idx)
		v := c.Wait() // must not suspend, returns zeros
		if v[0] != 0 {
			t.Error("empty async wait returned data")
		}
		ran = true
	}
	w := StartWarp(kernel, Ctx{})
	for {
		if _, ok := w.Next(); !ok {
			break
		}
	}
	if !ran {
		t.Error("kernel did not complete")
	}
}

func TestDoubleLoadAsyncPanics(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 8, false)
	kernel := func(c *Ctx) {
		var idx [WarpSize]uint32
		c.LoadAsync(LaneMask(0), buf, &idx)
		c.LoadAsync(LaneMask(0), buf, &idx) // second outstanding: panic
	}
	w := StartWarp(kernel, Ctx{})
	defer func() {
		if recover() == nil {
			t.Error("double LoadAsync did not panic")
		}
	}()
	for {
		if _, ok := w.Next(); !ok {
			break
		}
	}
}

func TestWaitWithoutAsyncPanics(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 8, false)
	kernel := func(c *Ctx) {
		var idx [WarpSize]uint32
		c.LoadAsync(LaneMask(0), buf, &idx)
		c.Wait()
		c.Wait() // nothing outstanding and last mask nonzero: panic
	}
	w := StartWarp(kernel, Ctx{})
	defer func() {
		if recover() == nil {
			t.Error("stray Wait did not panic")
		}
	}()
	for {
		op, ok := w.Next()
		if !ok {
			break
		}
		_ = op
	}
}
