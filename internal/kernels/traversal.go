package kernels

import (
	"fmt"

	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// TraversalVariant selects the GraphBIG implementation style of a
// BFS/SSSP workload. The styles differ in work mapping — and therefore
// in warp divergence and PIM offloading rate, which is exactly the
// distinction the paper's Eq. 1 exploits ("topological-driven graph
// algorithms have a high ratio [of divergent warps], while warp-centric
// ones have a low ratio").
type TraversalVariant int

// Traversal variants.
const (
	// VariantTopoAtomic: topology-driven, thread-centric, atomicMin
	// relaxations (bfs-ta).
	VariantTopoAtomic TraversalVariant = iota
	// VariantTopoThreadCAS: topology-driven, thread-centric, CAS-based
	// visitation (bfs-ttc).
	VariantTopoThreadCAS
	// VariantTopoWarp: topology-driven, warp-centric (bfs-twc /
	// sssp-twc).
	VariantTopoWarp
	// VariantDataWarp: data-driven (frontier), warp-centric (bfs-dwc /
	// sssp-dwc).
	VariantDataWarp
	// VariantDataThread: data-driven, thread-centric (sssp-dtc).
	VariantDataThread
)

func (v TraversalVariant) String() string {
	switch v {
	case VariantTopoAtomic:
		return "ta"
	case VariantTopoThreadCAS:
		return "ttc"
	case VariantTopoWarp:
		return "twc"
	case VariantDataWarp:
		return "dwc"
	case VariantDataThread:
		return "dtc"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// gridBlocksStrided is the fixed grid of strided (warp-centric) kernels:
// 128 blocks × 4 warps = 512 warps.
const gridBlocksStrided = 128

// traversal is what BFS and SSSP share and embed: a multi-source
// frontier traversal. It owns the device buffers, resets them for each
// source, runs rounds until the traversal converges, verifies the
// result against the sequential reference and moves on to the next
// source. The embedding workload supplies each round's kernel.
type traversal struct {
	variant    TraversalVariant
	numSources int
	family     string // workload family ("bfs", "sssp"): name prefix and buffer names
	prop       string // per-vertex property ("level", "dist"): buffer name and verification text
	frontEdges int    // each frontier holds frontEdges×E + V + 1 words
	ref        func(g *graph.Graph, src int) []uint32
	kernel     func() (k simt.KernelFunc, blocks int) // the current round's kernel and grid

	dev     *Device
	values  mem.Buffer // PIM: the per-vertex property
	changed mem.Buffer // flag word (cacheable)
	front   [2]mem.Buffer
	counts  mem.Buffer // two frontier counters

	sources []int
	srcIdx  int
	round   uint32 // current round of this source (BFS: the level being expanded)
	side    int    // current frontier buffer
	started bool
	failure error
}

// Name implements Workload.
func (t *traversal) Name() string { return t.family + "-" + t.variant.String() }

// Setup implements Workload. The buffers are allocated in a fixed order,
// because addresses feed the caches; the PIM property comes last, because
// PIM allocations must be contiguous.
func (t *traversal) Setup(space *mem.Space, g *graph.Graph) {
	t.dev = NewDevice(space, g)
	t.changed = space.Alloc(t.family+".changed", 1, false)
	capWords := t.frontEdges*g.NumE() + g.NumV + 1
	t.front[0] = space.Alloc(t.family+".frontierA", capWords, false)
	t.front[1] = space.Alloc(t.family+".frontierB", capWords, false)
	t.counts = space.Alloc(t.family+".counts", 2, false)
	t.values = space.Alloc(t.family+"."+t.prop, g.NumV, true)
	t.sources = topSources(g, t.numSources)
}

// NextLaunch implements Workload: the current source's next round, or,
// once that traversal has converged, the first round of the next source.
func (t *traversal) NextLaunch() (*gpu.Launch, bool) {
	for t.started && !t.advance() {
		t.verifySource()
		t.srcIdx++
		t.started = false
	}
	if !t.started {
		if t.srcIdx >= len(t.sources) {
			return nil, false
		}
		t.initSource()
	}
	k, blocks := t.kernel()
	return &gpu.Launch{Kernel: k, Blocks: blocks, BlockDim: BlockDim}, true
}

// advance moves the traversal to its next round and reports whether
// there is one. The data-driven variants go on while the next frontier
// is non-empty, the others while a kernel raised the changed flag.
func (t *traversal) advance() bool {
	s := t.dev.Space
	if t.variant == VariantDataWarp || t.variant == VariantDataThread {
		if s.Load32(t.counts.Addr(1^t.side)) == 0 {
			return false
		}
		t.side ^= 1
		s.Store32(t.counts.Addr(1^t.side), 0)
	} else {
		if s.Load32(t.changed.Addr(0)) == 0 {
			return false
		}
		s.Store32(t.changed.Addr(0), 0)
	}
	t.round++
	return true
}

// initSource resets device state for the next traversal (host-side,
// untimed — cudaMemset between GraphBIG traversals).
func (t *traversal) initSource() {
	s := t.dev.Space
	s.FillU32(t.values, graph.Infinity)
	src := t.sources[t.srcIdx]
	s.Store32(t.values.Addr(src), 0)
	s.Store32(t.changed.Addr(0), 0)
	s.Store32(t.counts.Addr(0), 1)
	s.Store32(t.counts.Addr(1), 0)
	s.Store32(t.front[0].Addr(0), uint32(src))
	t.round = 0
	t.side = 0
	t.started = true
}

// verifySource checks the completed traversal.
func (t *traversal) verifySource() {
	if t.failure != nil {
		return
	}
	src := t.sources[t.srcIdx]
	want := t.ref(t.dev.G, src)
	for v := 0; v < t.dev.G.NumV; v++ {
		if got := t.dev.Space.Load32(t.values.Addr(v)); got != want[v] {
			t.failure = fmt.Errorf("%s src %d: %s[%d] = %d, want %d", t.Name(), src, t.prop, v, got, want[v])
			return
		}
	}
}

// Verify implements Workload.
func (t *traversal) Verify() error { return t.failure }

// frontiers returns the current round's frontier and its entry count,
// and the frontier the round appends to.
func (t *traversal) frontiers() (cur mem.Buffer, count int, next frontier) {
	count = int(t.dev.Space.Load32(t.counts.Addr(t.side)))
	return t.front[t.side], count, frontier{t.front[1^t.side], t.counts, uint32(1 ^ t.side)}
}

// frontier is the next frontier of a data-driven round.
type frontier struct {
	buf      mem.Buffer
	counts   mem.Buffer // the buffer holding its entry counter
	countIdx uint32     // the counter's word in counts
}

// push appends dst[l] for every lane of mask, each at a slot taken with
// an atomic add on the entry counter.
func (f *frontier) push(c *simt.Ctx, mask simt.Mask, dst *[simt.WarpSize]uint32) {
	ctr, one := splat(f.countIdx), splat(1)
	slots, _ := c.Atomic(mem.AtomicAdd, mask, f.counts, &ctr, &one, nil, true)
	c.Store(mask, f.buf, &slots, dst)
}

// succeeded returns the lanes of active whose atomic reported success.
func succeeded(active simt.Mask, ok *[simt.WarpSize]bool) simt.Mask {
	var m simt.Mask
	for l := 0; l < simt.WarpSize; l++ {
		if active.Lane(l) && ok[l] {
			m = m.Set(l)
		}
	}
	return m
}

// raiseChanged sets the convergence flag once per warp.
func raiseChanged(c *simt.Ctx, changed mem.Buffer) {
	var word [simt.WarpSize]uint32 // lane 0 names word 0
	one := splat(1)
	c.Atomic(mem.AtomicOr, simt.LaneMask(0), changed, &word, &one, nil, false)
}
