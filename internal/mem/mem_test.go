package mem

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestAtomicApply(t *testing.T) {
	cases := []struct {
		op            AtomicOp
		old, val, cmp uint32
		want          uint32
		ok            bool
	}{
		{AtomicAdd, 5, 3, 0, 8, true},
		{AtomicSub, 5, 3, 0, 2, true},
		{AtomicMin, 5, 3, 0, 3, true},
		{AtomicMin, 3, 5, 0, 3, false},
		{AtomicMax, 3, 5, 0, 5, true},
		{AtomicMax, 5, 3, 0, 5, false},
		{AtomicAnd, 0b1100, 0b1010, 0, 0b1000, true},
		{AtomicOr, 0b1100, 0b1010, 0, 0b1110, true},
		{AtomicXor, 0b1100, 0b1010, 0, 0b0110, true},
		{AtomicExch, 7, 9, 0, 9, true},
		{AtomicCAS, 7, 9, 7, 9, true},
		{AtomicCAS, 7, 9, 8, 7, false},
	}
	for _, c := range cases {
		got, ok := c.op.Apply(c.old, c.val, c.cmp)
		if got != c.want || ok != c.ok {
			t.Errorf("%v.Apply(%d,%d,%d) = %d,%v want %d,%v",
				c.op, c.old, c.val, c.cmp, got, ok, c.want, c.ok)
		}
	}
}

func TestAtomicFAdd(t *testing.T) {
	old := math.Float32bits(1.5)
	val := math.Float32bits(2.25)
	got, ok := AtomicFAdd.Apply(old, val, 0)
	if !ok || math.Float32frombits(got) != 3.75 {
		t.Errorf("FAdd(1.5, 2.25) = %v", math.Float32frombits(got))
	}
}

// TestAtomicMinIdempotent (property): applying min twice with the same
// value equals applying it once, and the result never exceeds either
// input.
func TestAtomicMinIdempotent(t *testing.T) {
	f := func(old, val uint32) bool {
		once, _ := AtomicMin.Apply(old, val, 0)
		twice, _ := AtomicMin.Apply(once, val, 0)
		return once == twice && once <= old && once <= val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAtomicAddSubInverse (property): add then sub restores the word.
func TestAtomicAddSubInverse(t *testing.T) {
	f := func(old, val uint32) bool {
		a, _ := AtomicAdd.Apply(old, val, 0)
		b, _ := AtomicSub.Apply(a, val, 0)
		return b == old
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyPanicsOnNone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Apply(AtomicNone) did not panic")
		}
	}()
	AtomicNone.Apply(1, 2, 3)
}

func TestAllocLayout(t *testing.T) {
	s := NewSpace(1 << 16)
	a := s.Alloc("a", 10, false)
	b := s.Alloc("b", 20, false)
	if a.Base%256 != 0 || b.Base%256 != 0 {
		t.Errorf("allocations not 256B aligned: %#x %#x", a.Base, b.Base)
	}
	if b.Base < a.End() {
		t.Errorf("buffers overlap: a=[%#x,%#x) b starts %#x", a.Base, a.End(), b.Base)
	}
	if !a.Contains(a.Addr(9)) || a.Contains(b.Addr(0)) {
		t.Error("Contains() wrong")
	}
	if len(s.Buffers()) != 2 {
		t.Errorf("buffer map has %d entries", len(s.Buffers()))
	}
}

func TestPIMRegion(t *testing.T) {
	s := NewSpace(1 << 16)
	plain := s.Alloc("plain", 64, false)
	p1 := s.Alloc("p1", 64, true)
	p2 := s.Alloc("p2", 64, true)
	tail := s.Alloc("tail", 64, false)
	if s.InPIMRegion(plain.Addr(0)) || s.InPIMRegion(tail.Addr(0)) {
		t.Error("non-PIM buffer classified as PIM")
	}
	if !s.InPIMRegion(p1.Addr(0)) || !s.InPIMRegion(p2.Addr(63)) {
		t.Error("PIM buffer not classified as PIM")
	}
	lo, hi := s.PIMRegion()
	if lo != p1.Base || hi != p2.End() {
		t.Errorf("PIM region [%#x,%#x), want [%#x,%#x)", lo, hi, p1.Base, p2.End())
	}
}

func TestEmptyPIMRegion(t *testing.T) {
	s := NewSpace(1024)
	b := s.Alloc("x", 8, false)
	if s.InPIMRegion(b.Addr(0)) || s.InPIMRegion(0) {
		t.Error("empty PIM region claims addresses")
	}
}

func TestNonContiguousPIMPanics(t *testing.T) {
	s := NewSpace(1 << 16)
	s.Alloc("p1", 8, true)
	s.Alloc("gap", 8, false)
	defer func() {
		if recover() == nil {
			t.Error("non-contiguous PIM allocation accepted")
		}
	}()
	s.Alloc("p2", 8, true)
}

func TestLoadStore(t *testing.T) {
	s := NewSpace(1024)
	b := s.Alloc("b", 16, false)
	s.Store32(b.Addr(3), 42)
	if got := s.Load32(b.Addr(3)); got != 42 {
		t.Errorf("Load32 = %d", got)
	}
	s.FillU32(b, 7)
	for i := 0; i < b.Words; i++ {
		if s.Load32(b.Addr(i)) != 7 {
			t.Fatalf("FillU32 missed word %d", i)
		}
	}
	s.WriteU32(b, 2, []uint32{1, 2, 3})
	got := s.ReadU32(b, 2, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("ReadU32 = %v", got)
	}
}

func TestSpaceAtomic(t *testing.T) {
	s := NewSpace(1024)
	b := s.Alloc("b", 4, true)
	s.Store32(b.Addr(0), 10)
	old, ok := s.Atomic(AtomicAdd, b.Addr(0), 5, 0)
	if old != 10 || !ok || s.Load32(b.Addr(0)) != 15 {
		t.Errorf("Atomic add: old=%d ok=%v now=%d", old, ok, s.Load32(b.Addr(0)))
	}
	old, ok = s.Atomic(AtomicCAS, b.Addr(0), 99, 14)
	if ok || old != 15 || s.Load32(b.Addr(0)) != 15 {
		t.Error("failed CAS modified memory")
	}
}

// TestAccessPanics checks every range check and its message: the panic
// values print exactly as the formatted strings they replaced, so users
// and runner.RunPanicError see no difference.
func TestAccessPanics(t *testing.T) {
	s := NewSpace(16)
	b := s.Alloc("b", 2, false)
	for _, tc := range []struct {
		name string
		fn   func()
		want string
	}{
		{"unaligned load", func() { s.Load32(2) }, "mem: unaligned access at 0x2"},
		{"load out of range", func() { s.Load32(1 << 20) }, "mem: access at 0x100000 beyond capacity"},
		{"unaligned store", func() { s.Store32(7, 1) }, "mem: unaligned access at 0x7"},
		{"store out of range", func() { s.Store32(64, 1) }, "mem: access at 0x40 beyond capacity"},
		{"unaligned atomic", func() { s.Atomic(AtomicAdd, 1, 1, 0) }, "mem: unaligned access at 0x1"},
		{"bad buf idx", func() { b.Addr(2) }, "mem: b[2] out of range (2 words)"},
		{"negative buf idx", func() { b.Addr(-1) }, "mem: b[-1] out of range (2 words)"},
		{"zero alloc", func() { s.Alloc("z", 0, false) }, `mem: Alloc("z", 0)`},
		{"overflow", func() { s.Alloc("big", 1<<20, false) }, `mem: out of space allocating "big" (1048576 words)`},
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

func TestAtomicOpString(t *testing.T) {
	if AtomicFAdd.String() != "fadd" || AtomicCAS.String() != "cas" {
		t.Error("AtomicOp names wrong")
	}
}
