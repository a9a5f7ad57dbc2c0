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

// BFS is the breadth-first-search workload family.
type BFS struct {
	variant    TraversalVariant
	numSources int

	dev     *Device
	level   mem.Buffer // PIM: per-vertex BFS level
	changed mem.Buffer // flag word (cacheable)
	front   [2]mem.Buffer
	counts  mem.Buffer // two frontier counters

	sources []int
	srcIdx  int
	cur     uint32 // current topological level
	side    int    // current frontier buffer
	started bool
	failure error
}

// NewBFS creates a BFS workload traversing from the numSources
// highest-degree vertices in turn.
func NewBFS(variant TraversalVariant, numSources int) *BFS {
	if numSources < 1 {
		numSources = 1
	}
	if variant == VariantDataThread {
		panic("kernels: bfs-dtc is not part of the evaluation; use sssp-dtc")
	}
	return &BFS{variant: variant, numSources: numSources}
}

// Name implements Workload.
func (w *BFS) Name() string { return "bfs-" + w.variant.String() }

// Profile implements Workload.
func (w *BFS) Profile() Profile {
	switch w.variant {
	case VariantTopoWarp, VariantDataWarp:
		return Profile{PIMIntensity: 0.65, DivergenceRatio: 0.15}
	default:
		return Profile{PIMIntensity: 0.45, DivergenceRatio: 0.55}
	}
}

// Setup implements Workload.
func (w *BFS) Setup(space *mem.Space, g *graph.Graph) {
	w.dev = NewDevice(space, g)
	w.changed = space.Alloc("bfs.changed", 1, false)
	capWords := g.NumE() + g.NumV + 1
	w.front[0] = space.Alloc("bfs.frontierA", capWords, false)
	w.front[1] = space.Alloc("bfs.frontierB", capWords, false)
	w.counts = space.Alloc("bfs.counts", 2, false)
	w.level = space.Alloc("bfs.level", g.NumV, true)
	w.sources = topSources(g, w.numSources)
}

// initSource resets device state for the next traversal (host-side,
// untimed — cudaMemset between GraphBIG traversals).
func (w *BFS) initSource() {
	s := w.dev.Space
	s.FillU32(w.level, graph.Infinity)
	src := w.sources[w.srcIdx]
	s.Store32(w.level.Addr(src), 0)
	s.Store32(w.changed.Addr(0), 0)
	s.Store32(w.counts.Addr(0), 1)
	s.Store32(w.counts.Addr(1), 0)
	s.Store32(w.front[0].Addr(0), uint32(src))
	w.cur = 0
	w.side = 0
	w.started = true
}

// verifySource checks the completed traversal.
func (w *BFS) verifySource() {
	if w.failure != nil {
		return
	}
	want := graph.BFSLevels(w.dev.G, w.sources[w.srcIdx])
	for v := 0; v < w.dev.G.NumV; v++ {
		if got := w.dev.Space.Load32(w.level.Addr(v)); got != want[v] {
			w.failure = fmt.Errorf("%s src %d: level[%d] = %d, want %d",
				w.Name(), w.sources[w.srcIdx], v, got, want[v])
			return
		}
	}
}

// NextLaunch implements Workload.
func (w *BFS) NextLaunch() (*gpu.Launch, bool) {
	s := w.dev.Space
	for {
		if !w.started {
			if w.srcIdx >= len(w.sources) {
				return nil, false
			}
			w.initSource()
		} else {
			// Decide whether the current traversal has converged.
			done := false
			switch w.variant {
			case VariantDataWarp:
				nextCount := s.Load32(w.counts.Addr(1 ^ w.side))
				if nextCount == 0 {
					done = true
				} else {
					w.side ^= 1
					s.Store32(w.counts.Addr(1^w.side), 0)
					w.cur++
				}
			default:
				if s.Load32(w.changed.Addr(0)) == 0 {
					done = true
				} else {
					s.Store32(w.changed.Addr(0), 0)
					w.cur++
				}
			}
			if done {
				w.verifySource()
				w.srcIdx++
				w.started = false
				continue
			}
		}
		return w.buildLaunch(), true
	}
}

func (w *BFS) buildLaunch() *gpu.Launch {
	var k simt.KernelFunc
	blocks := blocksFor(w.dev.G.NumV)
	switch w.variant {
	case VariantTopoAtomic:
		k = w.topoThreadKernel(false)
	case VariantTopoThreadCAS:
		k = w.topoThreadKernel(true)
	case VariantTopoWarp:
		k = w.topoWarpKernel()
		blocks = gridBlocksStrided
	case VariantDataWarp:
		k = w.dataWarpKernel()
		blocks = gridBlocksStrided
	}
	return &gpu.Launch{
		Name:     fmt.Sprintf("%s.src%d.lvl%d", w.Name(), w.srcIdx, w.cur),
		Kernel:   k,
		Blocks:   blocks,
		BlockDim: BlockDim,
	}
}

// raiseChanged sets the convergence flag once per warp.
func raiseChanged(c *simt.Ctx, changed mem.Buffer) {
	var addr [simt.WarpSize]uint64
	addr[0] = changed.Addr(0)
	c.Atomic(mem.AtomicOr, simt.LaneMask(0), addr, splat(1), [simt.WarpSize]uint32{}, false)
}

// topoThreadKernel: each thread owns one vertex; vertices at the current
// level relax their neighbours (atomicMin or CAS-from-unvisited).
func (w *BFS) topoThreadKernel(useCAS bool) simt.KernelFunc {
	d, level, changed := w.dev, w.level, w.changed
	cur := w.cur
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		mask, v := laneVertices(c, numV)
		if !mask.Any() {
			return
		}
		lv := c.Load(mask, gather(level, mask, &v))
		var onLevel simt.Mask
		for l := 0; l < simt.WarpSize; l++ {
			if mask.Lane(l) && lv[l] == cur {
				onLevel = onLevel.Set(l)
			}
		}
		if !onLevel.Any() {
			return
		}
		start, end := d.loadRange(c, onLevel, v)
		// Relaxations are fire-and-forget PIM/posted atomics: the
		// topological sweep does not need the old value — termination is
		// detected by the next round's scan finding no vertex on the new
		// level, so the warp only reports that this level was non-empty.
		d.edgeLoopThreadCentric(c, onLevel, start, end, func(active simt.Mask, _, dst [simt.WarpSize]uint32) {
			addrs := gather(level, active, &dst)
			if useCAS {
				c.Atomic(mem.AtomicCAS, active, addrs, splat(cur+1), splat(graph.Infinity), false)
			} else {
				c.Atomic(mem.AtomicMin, active, addrs, splat(cur+1), [simt.WarpSize]uint32{}, false)
			}
		})
		raiseChanged(c, changed)
	}
}

// topoWarpKernel: warps stride over 32-vertex chunks; the chunk's levels
// are read with one coalesced vector load, then each on-level vertex's
// edges are relaxed 32 at a time.
func (w *BFS) topoWarpKernel() simt.KernelFunc {
	d, level, changed := w.dev, w.level, w.changed
	cur := w.cur
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		stride := c.GridDim * c.BlockDim / simt.WarpSize * simt.WarpSize
		sawOnLevel := false
		for base := c.GlobalWarp * simt.WarpSize; base < numV; base += stride {
			chunk, lv := scanChunk(c, level, base, numV)
			var onLevel simt.Mask
			var vid [simt.WarpSize]uint32
			for l := 0; l < simt.WarpSize; l++ {
				vid[l] = uint32(base + l)
				if chunk.Lane(l) && lv[l] == cur {
					onLevel = onLevel.Set(l)
				}
			}
			if !onLevel.Any() {
				continue
			}
			start, end := d.loadRange(c, onLevel, vid)
			sawOnLevel = true
			for l := 0; l < simt.WarpSize; l++ {
				if !onLevel.Lane(l) {
					continue
				}
				d.edgeLoopWarpCentric(c, start[l], end[l], func(active simt.Mask, _, dst [simt.WarpSize]uint32) {
					c.Atomic(mem.AtomicMin, active, gather(level, active, &dst),
						splat(cur+1), [simt.WarpSize]uint32{}, false)
				})
			}
		}
		if sawOnLevel {
			raiseChanged(c, changed)
		}
	}
}

// dataWarpKernel: warps stride over 32-entry frontier chunks (one vector
// load per chunk); discovered vertices are appended to the next frontier
// with an atomic cursor.
func (w *BFS) dataWarpKernel() simt.KernelFunc {
	d, level := w.dev, w.level
	curFront, nextFront := w.front[w.side], w.front[1^w.side]
	nextCountAddr := w.counts.Addr(1 ^ w.side)
	count := int(w.dev.Space.Load32(w.counts.Addr(w.side)))
	cur := w.cur
	return func(c *simt.Ctx) {
		stride := c.GridDim * c.BlockDim / simt.WarpSize * simt.WarpSize
		for base := c.GlobalWarp * simt.WarpSize; base < count; base += stride {
			chunk, vids := scanChunk(c, curFront, base, count)
			start, end := d.loadRange(c, chunk, vids)
			for l := 0; l < simt.WarpSize; l++ {
				if !chunk.Lane(l) {
					continue
				}
				d.edgeLoopWarpCentric(c, start[l], end[l], func(active simt.Mask, _, dst [simt.WarpSize]uint32) {
					_, ok := c.Atomic(mem.AtomicMin, active, gather(level, active, &dst),
						splat(cur+1), [simt.WarpSize]uint32{}, true)
					var push simt.Mask
					for j := 0; j < simt.WarpSize; j++ {
						if active.Lane(j) && ok[j] {
							push = push.Set(j)
						}
					}
					if !push.Any() {
						return
					}
					var ctr [simt.WarpSize]uint64
					for j := 0; j < simt.WarpSize; j++ {
						ctr[j] = nextCountAddr
					}
					slots, _ := c.Atomic(mem.AtomicAdd, push, ctr, splat(1), [simt.WarpSize]uint32{}, true)
					c.Store(push, gather(nextFront, push, &slots), dst)
				})
			}
		}
	}
}

// Verify implements Workload.
func (w *BFS) Verify() error { return w.failure }
