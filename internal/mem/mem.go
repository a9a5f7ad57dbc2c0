// Package mem provides the functional memory image the simulated system
// computes on: a flat 32-bit-word address space with named buffer
// allocation, a PIM-region attribute (GraphPIM's uncacheable offloading
// window), and the atomic read-modify-write operations that both the
// HMC's PIM functional units and the GPU's host atomics execute. The
// same image is shared by the functional and timing layers, so simulated
// programs produce real, checkable results.
package mem

import (
	"fmt"
	"math"
)

// WordBytes is the granularity of functional accesses.
const WordBytes = 4

// AtomicOp enumerates the read-modify-write operations supported by the
// PIM functional units (HMC 2.0 atomics + the GraphPIM floating-point
// extensions) and their host CUDA equivalents.
type AtomicOp uint8

// Atomic operations.
const (
	AtomicNone AtomicOp = iota
	AtomicAdd           // integer add
	AtomicFAdd          // float32 add (GraphPIM extension)
	AtomicSub           // integer subtract
	AtomicMin           // unsigned min (swap-if-less)
	AtomicMax           // unsigned max (swap-if-greater)
	AtomicAnd
	AtomicOr
	AtomicXor
	AtomicExch // unconditional swap
	AtomicCAS  // compare-and-swap-if-equal
)

var atomicNames = [...]string{
	"none", "add", "fadd", "sub", "min", "max", "and", "or", "xor", "exch", "cas",
}

func (op AtomicOp) String() string {
	if int(op) < len(atomicNames) {
		return atomicNames[op]
	}
	return fmt.Sprintf("AtomicOp(%d)", uint8(op))
}

// Apply computes the new value of a word under op. old is the current
// memory word; val and cmp are the operands (cmp is used by CAS only).
// It returns the value to store and whether the operation "succeeded"
// (always true except for a failed CAS/min/max swap).
func (op AtomicOp) Apply(old, val, cmp uint32) (newVal uint32, success bool) {
	switch op {
	case AtomicAdd:
		return old + val, true
	case AtomicSub:
		return old - val, true
	case AtomicFAdd:
		f := math.Float32frombits(old) + math.Float32frombits(val)
		return math.Float32bits(f), true
	case AtomicMin:
		if val < old {
			return val, true
		}
		return old, false
	case AtomicMax:
		if val > old {
			return val, true
		}
		return old, false
	case AtomicAnd:
		return old & val, true
	case AtomicOr:
		return old | val, true
	case AtomicXor:
		return old ^ val, true
	case AtomicExch:
		return val, true
	case AtomicCAS:
		if old == cmp {
			return val, true
		}
		return old, false
	}
	panic(fmt.Sprintf("mem: Apply on %v", op))
}

// Buffer is a named allocation within an address space.
type Buffer struct {
	Name  string
	Base  uint64 // byte address of the first word
	Words int
	PIM   bool // allocated in the PIM (uncacheable, offloadable) region
}

// Addr returns the byte address of word i.
func (b Buffer) Addr(i int) uint64 {
	if i < 0 || i >= b.Words {
		panic(&indexError{b.Name, i, b.Words})
	}
	return b.Base + uint64(i)*WordBytes
}

// indexError and accessError are the panic values of the per-word range
// checks (Buffer.Addr, Space.index). They format their messages only
// when printed: a fmt.Sprintf in the check itself would push these
// helpers, which run once per lane of every memory op, past the
// inliner's budget.
type indexError struct {
	name     string
	i, words int
}

func (e *indexError) Error() string {
	return fmt.Sprintf("mem: %s[%d] out of range (%d words)", e.name, e.i, e.words)
}

type accessError struct {
	addr      uint64
	unaligned bool // else beyond the space's capacity
}

func (e accessError) Error() string {
	if e.unaligned {
		return fmt.Sprintf("mem: unaligned access at %#x", e.addr)
	}
	return fmt.Sprintf("mem: access at %#x beyond capacity", e.addr)
}

// End returns the first byte address past the buffer.
func (b Buffer) End() uint64 { return b.Base + uint64(b.Words)*WordBytes }

// Contains reports whether a byte address falls inside the buffer.
func (b Buffer) Contains(addr uint64) bool { return addr >= b.Base && addr < b.End() }

// Space is a functional memory image plus its allocation map. The zero
// value is not usable; create with NewSpace.
type Space struct {
	words   []uint32
	bufs    []Buffer
	next    uint64
	pimLo   uint64 // PIM region bounds (half-open); zero-width when empty
	pimHi   uint64
	nonPIM  bool // set once a non-PIM allocation follows a PIM one
	aligned uint64
}

// NewSpace creates an address space able to hold capacityWords words.
func NewSpace(capacityWords int) *Space {
	if capacityWords <= 0 {
		panic("mem: non-positive capacity")
	}
	return &Space{
		words:   make([]uint32, capacityWords),
		aligned: 256, // allocations start on 256-byte boundaries (line+vault friendly)
	}
}

// CapacityBytes returns the total byte capacity.
func (s *Space) CapacityBytes() uint64 { return uint64(len(s.words)) * WordBytes }

// Alloc reserves a buffer of n words. PIM buffers form the uncacheable
// offloading target region; the space tracks their overall bounds so the
// cache hierarchy can classify addresses with two comparisons.
func (s *Space) Alloc(name string, n int, pim bool) Buffer {
	if n <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%q, %d)", name, n))
	}
	base := (s.next + s.aligned - 1) / s.aligned * s.aligned
	end := base + uint64(n)*WordBytes
	if end > s.CapacityBytes() {
		panic(fmt.Sprintf("mem: out of space allocating %q (%d words)", name, n))
	}
	b := Buffer{Name: name, Base: base, Words: n, PIM: pim}
	if pim {
		if s.nonPIM && s.pimHi != 0 {
			panic("mem: PIM allocations must be contiguous (allocate them together)")
		}
		if s.pimLo == s.pimHi { // first PIM allocation
			s.pimLo = base
		}
		s.pimHi = end
	} else if s.pimHi != 0 {
		s.nonPIM = true
	}
	s.bufs = append(s.bufs, b)
	s.next = end
	return b
}

// InPIMRegion reports whether a byte address falls in the PIM region.
func (s *Space) InPIMRegion(addr uint64) bool {
	return addr >= s.pimLo && addr < s.pimHi && s.pimHi != s.pimLo
}

// PIMRegion returns the [lo, hi) byte bounds of the PIM region.
func (s *Space) PIMRegion() (lo, hi uint64) { return s.pimLo, s.pimHi }

// Buffers returns the allocation map.
func (s *Space) Buffers() []Buffer { return s.bufs }

func (s *Space) index(addr uint64) int {
	if addr%WordBytes != 0 {
		panic(accessError{addr, true})
	}
	i := addr / WordBytes
	if i >= uint64(len(s.words)) {
		panic(accessError{addr, false})
	}
	return int(i)
}

// Load32 reads the word at a byte address.
func (s *Space) Load32(addr uint64) uint32 { return s.words[s.index(addr)] }

// Store32 writes the word at a byte address.
func (s *Space) Store32(addr uint64, v uint32) { s.words[s.index(addr)] = v }

// Atomic performs op at addr and returns the previous value and whether
// the operation succeeded. This single entry point is shared by the
// HMC's PIM functional units and the host (CUDA) atomic path, which is
// what guarantees PIM and non-PIM executions of a kernel compute
// identical results.
func (s *Space) Atomic(op AtomicOp, addr uint64, val, cmp uint32) (old uint32, success bool) {
	i := s.index(addr)
	old = s.words[i]
	newVal, ok := op.Apply(old, val, cmp)
	s.words[i] = newVal
	return old, ok
}

// FillU32 sets every word of a buffer to v.
func (s *Space) FillU32(b Buffer, v uint32) {
	for i := 0; i < b.Words; i++ {
		s.Store32(b.Addr(i), v)
	}
}

// WriteU32 copies vals into the buffer starting at word offset off.
func (s *Space) WriteU32(b Buffer, off int, vals []uint32) {
	for i, v := range vals {
		s.Store32(b.Addr(off+i), v)
	}
}

// ReadU32 copies n words of the buffer starting at off.
func (s *Space) ReadU32(b Buffer, off, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = s.Load32(b.Addr(off + i))
	}
	return out
}
