package kernels

import (
	"fmt"

	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// SSSP is the single-source shortest-paths workload family
// (label-correcting relaxations with atomicMin).
type SSSP struct {
	variant    TraversalVariant
	numSources int

	dev     *Device
	dist    mem.Buffer // PIM: tentative distances
	changed mem.Buffer
	front   [2]mem.Buffer
	counts  mem.Buffer

	sources []int
	srcIdx  int
	round   uint32
	side    int
	started bool
	failure error
}

// NewSSSP creates an SSSP workload over the numSources highest-degree
// vertices.
func NewSSSP(variant TraversalVariant, numSources int) *SSSP {
	if numSources < 1 {
		numSources = 1
	}
	switch variant {
	case VariantDataWarp, VariantTopoWarp, VariantDataThread:
	default:
		panic(fmt.Sprintf("kernels: sssp variant %v not in the evaluation", variant))
	}
	return &SSSP{variant: variant, numSources: numSources}
}

// Name implements Workload.
func (w *SSSP) Name() string { return "sssp-" + w.variant.String() }

// Profile implements Workload. The data-driven thread-centric variant
// walks edges one lane at a time off a small frontier — heavy divergence
// and a naturally low offloading rate (the paper observes it never
// triggers the thermal limit).
func (w *SSSP) Profile() Profile {
	switch w.variant {
	case VariantDataWarp:
		return Profile{PIMIntensity: 0.6, DivergenceRatio: 0.2}
	case VariantTopoWarp:
		return Profile{PIMIntensity: 0.65, DivergenceRatio: 0.15}
	default: // data-driven thread-centric
		return Profile{PIMIntensity: 0.12, DivergenceRatio: 0.7}
	}
}

// Setup implements Workload.
func (w *SSSP) Setup(space *mem.Space, g *graph.Graph) {
	w.dev = NewDevice(space, g)
	w.changed = space.Alloc("sssp.changed", 1, false)
	capWords := 4*g.NumE() + g.NumV + 1
	w.front[0] = space.Alloc("sssp.frontierA", capWords, false)
	w.front[1] = space.Alloc("sssp.frontierB", capWords, false)
	w.counts = space.Alloc("sssp.counts", 2, false)
	w.dist = space.Alloc("sssp.dist", g.NumV, true)
	w.sources = topSources(g, w.numSources)
}

func (w *SSSP) dataDriven() bool {
	return w.variant == VariantDataWarp || w.variant == VariantDataThread
}

func (w *SSSP) initSource() {
	s := w.dev.Space
	s.FillU32(w.dist, graph.Infinity)
	src := w.sources[w.srcIdx]
	s.Store32(w.dist.Addr(src), 0)
	s.Store32(w.changed.Addr(0), 0)
	s.Store32(w.counts.Addr(0), 1)
	s.Store32(w.counts.Addr(1), 0)
	s.Store32(w.front[0].Addr(0), uint32(src))
	w.round = 0
	w.side = 0
	w.started = true
}

func (w *SSSP) verifySource() {
	if w.failure != nil {
		return
	}
	want := graph.SSSPDistances(w.dev.G, w.sources[w.srcIdx])
	for v := 0; v < w.dev.G.NumV; v++ {
		if got := w.dev.Space.Load32(w.dist.Addr(v)); got != want[v] {
			w.failure = fmt.Errorf("%s src %d: dist[%d] = %d, want %d",
				w.Name(), w.sources[w.srcIdx], v, got, want[v])
			return
		}
	}
}

// NextLaunch implements Workload.
func (w *SSSP) NextLaunch() (*gpu.Launch, bool) {
	s := w.dev.Space
	for {
		if !w.started {
			if w.srcIdx >= len(w.sources) {
				return nil, false
			}
			w.initSource()
		} else {
			done := false
			if w.dataDriven() {
				nextCount := s.Load32(w.counts.Addr(1 ^ w.side))
				if nextCount == 0 {
					done = true
				} else {
					w.side ^= 1
					s.Store32(w.counts.Addr(1^w.side), 0)
					w.round++
				}
			} else {
				if s.Load32(w.changed.Addr(0)) == 0 {
					done = true
				} else {
					s.Store32(w.changed.Addr(0), 0)
					w.round++
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

func (w *SSSP) buildLaunch() *gpu.Launch {
	var k simt.KernelFunc
	blocks := gridBlocksStrided
	switch w.variant {
	case VariantTopoWarp:
		k = w.topoWarpKernel()
	case VariantDataWarp:
		k = w.dataWarpKernel()
	case VariantDataThread:
		count := int(w.dev.Space.Load32(w.counts.Addr(w.side)))
		k = w.dataThreadKernel(count)
		blocks = blocksFor(count)
	}
	return &gpu.Launch{
		Name:     fmt.Sprintf("%s.src%d.r%d", w.Name(), w.srcIdx, w.round),
		Kernel:   k,
		Blocks:   blocks,
		BlockDim: BlockDim,
	}
}

// relaxWarpEdges relaxes one vertex's out-edges warp-centrically: loads
// the edge weights, computes candidate distances from dv, and issues the
// atomicMin relaxations. push (when non-nil) receives the lanes whose
// relaxation improved the destination, for frontier appends.
func (w *SSSP) relaxWarpEdges(c *simt.Ctx, dv uint32, start, end uint32,
	push func(active simt.Mask, dst, slots [simt.WarpSize]uint32)) bool {
	d, dist := w.dev, w.dist
	improvedAny := false
	d.edgeLoopWarpCentric(c, start, end, func(active simt.Mask, idx, dst [simt.WarpSize]uint32) {
		wt := c.Load(active, gather(d.Weights, active, &idx))
		var nd [simt.WarpSize]uint32
		for l := 0; l < simt.WarpSize; l++ {
			nd[l] = dv + wt[l]
		}
		c.Compute(2)
		_, ok := c.Atomic(mem.AtomicMin, active, gather(dist, active, &dst),
			nd, [simt.WarpSize]uint32{}, true)
		var improved simt.Mask
		for l := 0; l < simt.WarpSize; l++ {
			if active.Lane(l) && ok[l] {
				improved = improved.Set(l)
			}
		}
		if improved.Any() {
			improvedAny = true
			if push != nil {
				push(improved, dst, [simt.WarpSize]uint32{})
			}
		}
	})
	return improvedAny
}

// topoWarpKernel: one Bellman-Ford sweep — warps stride over 32-vertex
// chunks, vector-load the chunk's distances, and relax every out-edge of
// reached vertices.
func (w *SSSP) topoWarpKernel() simt.KernelFunc {
	d, dist, changed := w.dev, w.dist, w.changed
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		stride := c.GridDim * c.BlockDim / simt.WarpSize * simt.WarpSize
		improvedAny := false
		for base := c.GlobalWarp * simt.WarpSize; base < numV; base += stride {
			chunk, dv := scanChunk(c, dist, base, numV)
			var reached simt.Mask
			var vid [simt.WarpSize]uint32
			for l := 0; l < simt.WarpSize; l++ {
				vid[l] = uint32(base + l)
				if chunk.Lane(l) && dv[l] != graph.Infinity {
					reached = reached.Set(l)
				}
			}
			if !reached.Any() {
				continue
			}
			start, end := d.loadRange(c, reached, vid)
			for l := 0; l < simt.WarpSize; l++ {
				if !reached.Lane(l) {
					continue
				}
				if w.relaxWarpEdges(c, dv[l], start[l], end[l], nil) {
					improvedAny = true
				}
			}
		}
		if improvedAny {
			raiseChanged(c, changed)
		}
	}
}

// appendFrontier pushes the improved destinations onto the next frontier.
func (w *SSSP) appendFrontier(c *simt.Ctx, nextFront mem.Buffer, nextCountAddr uint64,
	push simt.Mask, dst [simt.WarpSize]uint32) {
	var ctr [simt.WarpSize]uint64
	for j := 0; j < simt.WarpSize; j++ {
		ctr[j] = nextCountAddr
	}
	slots, _ := c.Atomic(mem.AtomicAdd, push, ctr, splat(1), [simt.WarpSize]uint32{}, true)
	c.Store(push, gather(nextFront, push, &slots), dst)
}

// dataWarpKernel: warps stride over 32-entry frontier chunks; relaxed
// vertices are pushed to the next frontier.
func (w *SSSP) dataWarpKernel() simt.KernelFunc {
	d, dist := w.dev, w.dist
	curFront, nextFront := w.front[w.side], w.front[1^w.side]
	nextCountAddr := w.counts.Addr(1 ^ w.side)
	count := int(w.dev.Space.Load32(w.counts.Addr(w.side)))
	return func(c *simt.Ctx) {
		stride := c.GridDim * c.BlockDim / simt.WarpSize * simt.WarpSize
		for base := c.GlobalWarp * simt.WarpSize; base < count; base += stride {
			chunk, vids := scanChunk(c, curFront, base, count)
			dvs := c.Load(chunk, gather(dist, chunk, &vids))
			start, end := d.loadRange(c, chunk, vids)
			for l := 0; l < simt.WarpSize; l++ {
				if !chunk.Lane(l) {
					continue
				}
				w.relaxWarpEdges(c, dvs[l], start[l], end[l],
					func(push simt.Mask, dst, _ [simt.WarpSize]uint32) {
						w.appendFrontier(c, nextFront, nextCountAddr, push, dst)
					})
			}
		}
	}
}

// dataThreadKernel: each lane owns one frontier entry and walks its edge
// list sequentially — the high-divergence, low-offload-rate variant.
func (w *SSSP) dataThreadKernel(count int) simt.KernelFunc {
	d, dist := w.dev, w.dist
	curFront, nextFront := w.front[w.side], w.front[1^w.side]
	nextCountAddr := w.counts.Addr(1 ^ w.side)
	return func(c *simt.Ctx) {
		var mask simt.Mask
		var fi [simt.WarpSize]uint32
		for l := 0; l < simt.WarpSize; l++ {
			if tid := c.ThreadID(l); tid < count {
				mask = mask.Set(l)
				fi[l] = uint32(tid)
			}
		}
		if !mask.Any() {
			return
		}
		v := c.Load(mask, gather(curFront, mask, &fi))
		dv := c.Load(mask, gather(dist, mask, &v))
		start, end := d.loadRange(c, mask, v)
		// Extra per-edge bookkeeping compute: GraphBIG's thread-centric
		// data-driven implementation carries visitation bookkeeping.
		d.edgeLoopThreadCentric(c, mask, start, end, func(active simt.Mask, idx, dst [simt.WarpSize]uint32) {
			wt := c.Load(active, gather(d.Weights, active, &idx))
			var nd [simt.WarpSize]uint32
			for l := 0; l < simt.WarpSize; l++ {
				nd[l] = dv[l] + wt[l]
			}
			c.Compute(12)
			_, ok := c.Atomic(mem.AtomicMin, active, gather(dist, active, &dst),
				nd, [simt.WarpSize]uint32{}, true)
			var push simt.Mask
			for l := 0; l < simt.WarpSize; l++ {
				if active.Lane(l) && ok[l] {
					push = push.Set(l)
				}
			}
			if !push.Any() {
				return
			}
			w.appendFrontier(c, nextFront, nextCountAddr, push, dst)
		})
	}
}

// Verify implements Workload.
func (w *SSSP) Verify() error { return w.failure }
