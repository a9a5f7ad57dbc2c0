package kernels

import (
	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// BFS is the breadth-first-search workload family.
type BFS struct{ traversal }

// NewBFS creates a BFS workload traversing from the numSources
// highest-degree vertices in turn.
func NewBFS(variant TraversalVariant, numSources int) *BFS {
	if variant == VariantDataThread {
		panic("kernels: bfs-dtc is not part of the evaluation; use sssp-dtc")
	}
	w := &BFS{traversal{variant: variant, numSources: max(numSources, 1),
		family: "bfs", prop: "level", frontEdges: 1, ref: graph.BFSLevels}}
	w.kernel = w.roundKernel
	return w
}

// Profile implements Workload.
func (w *BFS) Profile() Profile {
	switch w.variant {
	case VariantTopoWarp, VariantDataWarp:
		return Profile{PIMIntensity: 0.65, DivergenceRatio: 0.15}
	default:
		return Profile{PIMIntensity: 0.45, DivergenceRatio: 0.55}
	}
}

// roundKernel returns the current level's kernel and its grid size.
func (w *BFS) roundKernel() (simt.KernelFunc, int) {
	switch w.variant {
	case VariantTopoAtomic:
		return w.topoThreadKernel(false), blocksFor(w.dev.G.NumV)
	case VariantTopoThreadCAS:
		return w.topoThreadKernel(true), blocksFor(w.dev.G.NumV)
	case VariantTopoWarp:
		return w.topoWarpKernel(), gridBlocksStrided
	default: // VariantDataWarp
		return w.dataWarpKernel(), gridBlocksStrided
	}
}

// topoThreadKernel: each thread owns one vertex; vertices at the current
// level relax their neighbours (atomicMin or CAS-from-unvisited).
func (w *BFS) topoThreadKernel(useCAS bool) simt.KernelFunc {
	d, level, changed := w.dev, w.values, w.changed
	cur := w.round
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		mask, v := laneVertices(c, numV)
		if !mask.Any() {
			return
		}
		lv := c.Load(mask, level, &v)
		var onLevel simt.Mask
		for l := 0; l < simt.WarpSize; l++ {
			if mask.Lane(l) && lv[l] == cur {
				onLevel = onLevel.Set(l)
			}
		}
		if !onLevel.Any() {
			return
		}
		start, end := d.loadRange(c, onLevel, &v)
		// Relaxations are fire-and-forget PIM/posted atomics: the
		// topological sweep does not need the old value — termination is
		// detected by the next round's scan finding no vertex on the new
		// level, so the warp only reports that this level was non-empty.
		nextLevel, unvisited := splat(cur+1), splat(graph.Infinity)
		var e edgeLoop
		e.threadCentric(c, d, onLevel, &start, &end)
		for e.next() {
			if useCAS {
				c.Atomic(mem.AtomicCAS, e.active, level, &e.dst, &nextLevel, &unvisited, false)
			} else {
				c.Atomic(mem.AtomicMin, e.active, level, &e.dst, &nextLevel, nil, false)
			}
		}
		raiseChanged(c, changed)
	}
}

// topoWarpKernel: warps stride over 32-vertex chunks; the chunk's levels
// are read with one coalesced vector load, then each on-level vertex's
// edges are relaxed 32 at a time.
func (w *BFS) topoWarpKernel() simt.KernelFunc {
	d, level, changed := w.dev, w.values, w.changed
	cur := w.round
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		stride := c.GridDim * c.BlockDim / simt.WarpSize * simt.WarpSize
		sawOnLevel := false
		nextLevel := splat(cur + 1)
		var e edgeLoop
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
			start, end := d.loadRange(c, onLevel, &vid)
			sawOnLevel = true
			for l := 0; l < simt.WarpSize; l++ {
				if !onLevel.Lane(l) {
					continue
				}
				e.warpCentric(c, d, start[l], end[l])
				for e.next() {
					c.Atomic(mem.AtomicMin, e.active, level, &e.dst, &nextLevel, nil, false)
				}
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
	d, level := w.dev, w.values
	curFront, count, next := w.frontiers()
	cur := w.round
	return func(c *simt.Ctx) {
		stride := c.GridDim * c.BlockDim / simt.WarpSize * simt.WarpSize
		nextLevel := splat(cur + 1)
		var e edgeLoop
		for base := c.GlobalWarp * simt.WarpSize; base < count; base += stride {
			chunk, vids := scanChunk(c, curFront, base, count)
			start, end := d.loadRange(c, chunk, &vids)
			for l := 0; l < simt.WarpSize; l++ {
				if !chunk.Lane(l) {
					continue
				}
				e.warpCentric(c, d, start[l], end[l])
				for e.next() {
					_, ok := c.Atomic(mem.AtomicMin, e.active, level, &e.dst, &nextLevel, nil, true)
					if push := succeeded(e.active, &ok); push.Any() {
						next.push(c, push, &e.dst)
					}
				}
			}
		}
	}
}
