package kernels

import (
	"fmt"

	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// SSSP is the single-source shortest-paths workload family
// (label-correcting relaxations with atomicMin).
type SSSP struct{ traversal }

// NewSSSP creates an SSSP workload over the numSources highest-degree
// vertices.
func NewSSSP(variant TraversalVariant, numSources int) *SSSP {
	switch variant {
	case VariantDataWarp, VariantTopoWarp, VariantDataThread:
	default:
		panic(fmt.Sprintf("kernels: sssp variant %v not in the evaluation", variant))
	}
	w := &SSSP{traversal{variant: variant, numSources: max(numSources, 1),
		family: "sssp", prop: "dist", frontEdges: 4, ref: graph.SSSPDistances}}
	w.kernel = w.roundKernel
	return w
}

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

// roundKernel returns the current round's kernel and its grid size.
func (w *SSSP) roundKernel() (simt.KernelFunc, int) {
	switch w.variant {
	case VariantTopoWarp:
		return w.topoWarpKernel(), gridBlocksStrided
	case VariantDataWarp:
		return w.dataWarpKernel(), gridBlocksStrided
	default: // VariantDataThread
		cur, count, next := w.frontiers()
		return w.dataThreadKernel(cur, count, next), blocksFor(count)
	}
}

// relaxWarpEdges relaxes one vertex's out-edges warp-centrically: loads
// the edge weights, computes candidate distances from dv, and issues the
// atomicMin relaxations. It appends the lanes whose relaxation improved
// the destination to next, when next is non-nil, and reports whether
// any did.
func (w *SSSP) relaxWarpEdges(c *simt.Ctx, dv uint32, start, end uint32, next *frontier) bool {
	d, dist := w.dev, w.values
	improvedAny := false
	var e edgeLoop
	e.warpCentric(c, d, start, end)
	for e.next() {
		wt := c.Load(e.active, d.Weights, &e.idx)
		var nd [simt.WarpSize]uint32
		for l := 0; l < simt.WarpSize; l++ {
			nd[l] = dv + wt[l]
		}
		c.Compute(2)
		_, ok := c.Atomic(mem.AtomicMin, e.active, dist, &e.dst, &nd, nil, true)
		if improved := succeeded(e.active, &ok); improved.Any() {
			improvedAny = true
			if next != nil {
				next.push(c, improved, &e.dst)
			}
		}
	}
	return improvedAny
}

// topoWarpKernel: one Bellman-Ford sweep — warps stride over 32-vertex
// chunks, vector-load the chunk's distances, and relax every out-edge of
// reached vertices.
func (w *SSSP) topoWarpKernel() simt.KernelFunc {
	d, dist, changed := w.dev, w.values, w.changed
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
			start, end := d.loadRange(c, reached, &vid)
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

// dataWarpKernel: warps stride over 32-entry frontier chunks; relaxed
// vertices are pushed to the next frontier.
func (w *SSSP) dataWarpKernel() simt.KernelFunc {
	d, dist := w.dev, w.values
	curFront, count, next := w.frontiers()
	return func(c *simt.Ctx) {
		stride := c.GridDim * c.BlockDim / simt.WarpSize * simt.WarpSize
		for base := c.GlobalWarp * simt.WarpSize; base < count; base += stride {
			chunk, vids := scanChunk(c, curFront, base, count)
			dvs := c.Load(chunk, dist, &vids)
			start, end := d.loadRange(c, chunk, &vids)
			for l := 0; l < simt.WarpSize; l++ {
				if !chunk.Lane(l) {
					continue
				}
				w.relaxWarpEdges(c, dvs[l], start[l], end[l], &next)
			}
		}
	}
}

// dataThreadKernel: each lane owns one frontier entry and walks its edge
// list sequentially — the high-divergence, low-offload-rate variant.
func (w *SSSP) dataThreadKernel(curFront mem.Buffer, count int, next frontier) simt.KernelFunc {
	d, dist := w.dev, w.values
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
		v := c.Load(mask, curFront, &fi)
		dv := c.Load(mask, dist, &v)
		start, end := d.loadRange(c, mask, &v)
		// Extra per-edge bookkeeping compute: GraphBIG's thread-centric
		// data-driven implementation carries visitation bookkeeping.
		var e edgeLoop
		e.threadCentric(c, d, mask, &start, &end)
		for e.next() {
			wt := c.Load(e.active, d.Weights, &e.idx)
			var nd [simt.WarpSize]uint32
			for l := 0; l < simt.WarpSize; l++ {
				nd[l] = dv[l] + wt[l]
			}
			c.Compute(12)
			_, ok := c.Atomic(mem.AtomicMin, e.active, dist, &e.dst, &nd, nil, true)
			if push := succeeded(e.active, &ok); push.Any() {
				next.push(c, push, &e.dst)
			}
		}
	}
}
