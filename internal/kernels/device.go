// Package kernels implements the GraphBIG graph workloads of the
// evaluation (Fig. 10: dc, bfs-ta, bfs-dwc, bfs-twc, bfs-ttc, sssp-dwc,
// sssp-twc, sssp-dtc, kcore, pagerank) as warp-level SIMT kernels.
// Following GraphPIM, each workload's atomically-updated graph property
// arrays live in the PIM (uncacheable) region and its atomics are
// PIM-offloadable; framework data (CSR arrays, frontiers, flags) is
// ordinary cacheable memory. Every workload verifies its device results
// against the sequential references in internal/graph.
package kernels

import (
	"fmt"

	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// Device holds the device-resident graph image.
type Device struct {
	Space *mem.Space
	G     *graph.Graph

	// CSR arrays (cacheable).
	Offsets mem.Buffer
	Edges   mem.Buffer
	Weights mem.Buffer
}

// NewDevice uploads a graph into an address space. The caller allocates
// property buffers afterwards (PIM buffers must be contiguous, so
// workloads allocate their PIM properties immediately after the non-PIM
// base data).
func NewDevice(space *mem.Space, g *graph.Graph) *Device {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("kernels: invalid graph: %v", err))
	}
	d := &Device{Space: space, G: g}
	d.Offsets = space.Alloc("csr.offsets", g.NumV+1, false)
	d.Edges = space.Alloc("csr.edges", maxInt(g.NumE(), 1), false)
	d.Weights = space.Alloc("csr.weights", maxInt(g.NumE(), 1), false)
	space.WriteU32(d.Offsets, 0, g.Offsets)
	space.WriteU32(d.Edges, 0, g.Edges)
	space.WriteU32(d.Weights, 0, g.Weights)
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SpaceFor returns an address space comfortably sized for a graph plus
// per-workload property and frontier buffers.
func SpaceFor(g *graph.Graph) *mem.Space {
	// CSR (V+1+2E) + the largest per-workload footprint (SSSP's two
	// 4E+V frontiers) + properties and slack.
	words := 16*(g.NumV+g.NumE()) + 1<<14
	return mem.NewSpace(words)
}

// splat fills a value vector with v on all lanes.
func splat(v uint32) [simt.WarpSize]uint32 {
	var out [simt.WarpSize]uint32
	for l := range out {
		out[l] = v
	}
	return out
}

// laneVertices computes each lane's vertex id (thread-centric mapping)
// and the mask of lanes with a valid vertex.
func laneVertices(c *simt.Ctx, numV int) (mask simt.Mask, v [simt.WarpSize]uint32) {
	for l := 0; l < simt.WarpSize; l++ {
		tid := c.ThreadID(l)
		if tid < numV {
			mask = mask.Set(l)
			v[l] = uint32(tid)
		}
	}
	return mask, v
}

// loadRange loads offsets[v] and offsets[v+1] for the active lanes,
// returning per-lane [start, end) edge ranges.
func (d *Device) loadRange(c *simt.Ctx, mask simt.Mask, v *[simt.WarpSize]uint32) (start, end [simt.WarpSize]uint32) {
	vNext := *v
	for l := range vNext {
		vNext[l]++
	}
	start = c.Load(mask, d.Offsets, v)
	end = c.Load(mask, d.Offsets, &vNext)
	return start, end
}

func activeLanes(mask simt.Mask, idx, end *[simt.WarpSize]uint32) simt.Mask {
	var active simt.Mask
	for l := 0; l < simt.WarpSize; l++ {
		if mask.Lane(l) && idx[l] < end[l] {
			active = active.Set(l)
		}
	}
	return active
}

// edgeLoop walks edge ranges in warp-wide batches. The destination loads
// are software-pipelined: the next batch is fetched asynchronously while
// the current one is processed, as any tuned GPU kernel does. Start one
// with threadCentric or warpCentric; each call of next that reports true
// leaves a batch in active, idx and dst, whose work the kernel issues
// before it calls next again.
//
// The loop is a cursor on the kernel's stack rather than a function
// taking a body callback: a func value's pointer arguments escape, so
// handing it &idx or &dst would move both to the heap on every batch.
type edgeLoop struct {
	c       *simt.Ctx
	edges   mem.Buffer
	mask    simt.Mask
	end     [simt.WarpSize]uint32
	step    uint32 // how far an active lane's edge index moves per batch
	started bool

	active simt.Mask             // the batch's lanes
	idx    [simt.WarpSize]uint32 // each active lane's edge index
	dst    [simt.WarpSize]uint32 // each active lane's destination vertex

	nextActive simt.Mask // the batch whose destinations are in flight
	nextIdx    [simt.WarpSize]uint32
}

// threadCentric starts the thread-centric loop: each lane of mask walks
// its own range [start, end) in lockstep, one edge per batch, so lanes
// with short edge lists go idle while long ones continue — the
// divergence the paper's Eq. 1 accounts for.
func (e *edgeLoop) threadCentric(c *simt.Ctx, d *Device, mask simt.Mask, start, end *[simt.WarpSize]uint32) {
	e.c, e.edges, e.mask, e.step, e.started = c, d.Edges, mask, 1, false
	e.idx, e.end = *start, *end
}

// warpCentric starts the warp-centric loop over one vertex's edge range
// [start, end): all lanes take stride-32 batches, the pattern with
// minimal divergence.
func (e *edgeLoop) warpCentric(c *simt.Ctx, d *Device, start, end uint32) {
	e.c, e.edges, e.mask, e.step, e.started = c, d.Edges, simt.FullMask, simt.WarpSize, false
	for l := 0; l < simt.WarpSize; l++ {
		e.idx[l] = start + uint32(l)
		e.end[l] = end
	}
}

// next waits for the next batch's destinations, starts fetching the
// batch after it, and reports whether there was a batch.
func (e *edgeLoop) next() bool {
	if !e.started {
		e.started = true
		e.active = activeLanes(e.mask, &e.idx, &e.end)
		if !e.active.Any() {
			return false
		}
		e.c.LoadAsync(e.active, e.edges, &e.idx)
	} else {
		if !e.nextActive.Any() {
			return false
		}
		e.active, e.idx = e.nextActive, e.nextIdx
	}
	e.nextIdx = e.idx
	for l := 0; l < simt.WarpSize; l++ {
		if e.active.Lane(l) {
			e.nextIdx[l] += e.step
		}
	}
	e.nextActive = activeLanes(e.mask, &e.nextIdx, &e.end)
	e.dst = e.c.Wait()
	if e.nextActive.Any() {
		e.c.LoadAsync(e.nextActive, e.edges, &e.nextIdx)
	}
	return true
}

// scanChunk loads a 32-wide contiguous slice of a property array for the
// chunk of vertices starting at base (clipped to numV). Warp-centric
// topological kernels scan vertex state this way — one coalesced vector
// load per 32 vertices instead of a scalar load per vertex.
func scanChunk(c *simt.Ctx, prop mem.Buffer, base, numV int) (simt.Mask, [simt.WarpSize]uint32) {
	var mask simt.Mask
	var vid [simt.WarpSize]uint32
	for l := 0; l < simt.WarpSize; l++ {
		if v := base + l; v < numV {
			mask = mask.Set(l)
			vid[l] = uint32(v)
		}
	}
	if !mask.Any() {
		return 0, [simt.WarpSize]uint32{}
	}
	return mask, c.Load(mask, prop, &vid)
}
