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

func TestKernelOpSequence(t *testing.T) {
	s := mem.NewSpace(1024)
	buf := s.Alloc("b", 64, false)
	for i := 0; i < 64; i++ {
		s.Store32(buf.Addr(i), uint32(i*10))
	}
	var observed [WarpSize]uint32
	kernel := func(c *Ctx) {
		c.Compute(4)
		var addr [WarpSize]uint64
		for l := 0; l < WarpSize; l++ {
			addr[l] = buf.Addr(l)
		}
		vals := c.Load(FullMask, addr)
		observed = vals
		var out [WarpSize]uint32
		for l := 0; l < WarpSize; l++ {
			out[l] = vals[l] + 1
			addr[l] = buf.Addr(32 + l)
		}
		c.Store(FullMask, addr, out)
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
		var addr [WarpSize]uint64
		var val [WarpSize]uint32
		for l := 0; l < WarpSize; l++ {
			addr[l] = buf.Addr(0) // all lanes hit one counter
			val[l] = 1
		}
		old, _ := c.Atomic(mem.AtomicAdd, FullMask, addr, val, [WarpSize]uint32{}, true)
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
	kernel := func(c *Ctx) {
		c.Load(0, [WarpSize]uint64{})
		c.Store(0, [WarpSize]uint64{}, [WarpSize]uint32{})
		c.Atomic(mem.AtomicAdd, 0, [WarpSize]uint64{}, [WarpSize]uint32{}, [WarpSize]uint32{}, false)
		c.Compute(0)
		c.Compute(-1)
	}
	trace := drain(t, kernel, nil)
	if len(trace) != 0 {
		t.Errorf("empty-mask ops emitted: %d", len(trace))
	}
}

func TestLoad1(t *testing.T) {
	s := mem.NewSpace(1024)
	b := s.Alloc("s", 4, false)
	s.Store32(b.Addr(2), 99)
	var got uint32
	kernel := func(c *Ctx) { got = c.Load1(b.Addr(2)) }
	trace := drain(t, kernel, s)
	if got != 99 {
		t.Errorf("Load1 = %d", got)
	}
	if trace[0].Mask.Count() != 1 {
		t.Errorf("Load1 mask = %v", trace[0].Mask)
	}
}

func TestWarpRunStop(t *testing.T) {
	reached := false
	kernel := func(c *Ctx) {
		c.Compute(1)
		c.Compute(1)
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
	// 100 warps each increment their own slot; interleaved pulls.
	s := mem.NewSpace(1 << 14)
	buf := s.Alloc("slots", 100, false)
	var runs []*WarpRun
	for i := 0; i < 100; i++ {
		i := i
		runs = append(runs, StartWarp(func(c *Ctx) {
			c.Compute(1)
			var addr [WarpSize]uint64
			addr[0] = buf.Addr(i)
			var val [WarpSize]uint32
			val[0] = uint32(i + 1)
			c.Store(LaneMask(0), addr, val)
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
			if w.Done() {
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
		var addr [WarpSize]uint64
		for l := 0; l < WarpSize; l++ {
			addr[l] = buf.Addr(l)
		}
		c.LoadAsync(FullMask, addr)
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
	ran := false
	kernel := func(c *Ctx) {
		c.LoadAsync(0, [WarpSize]uint64{})
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
	kernel := func(c *Ctx) {
		var addr [WarpSize]uint64
		c.LoadAsync(LaneMask(0), addr)
		c.LoadAsync(LaneMask(0), addr) // second outstanding: panic
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
	kernel := func(c *Ctx) {
		var addr [WarpSize]uint64
		c.LoadAsync(LaneMask(0), addr)
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
