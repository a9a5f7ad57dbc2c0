package kernels

import (
	"fmt"
	"math"

	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// Damping is the PageRank damping factor.
const Damping = 0.85

// PageRank is the push-style PageRank workload: every iteration scatters
// rank shares along all edges with floating-point atomic adds (the
// GraphPIM FP extension), then applies the damping update.
type PageRank struct {
	iters int
	iter  int
	phase int // 0 = scatter, 1 = apply

	dev  *Device
	rank mem.Buffer // cacheable: per-vertex rank (float32 bits)
	sums mem.Buffer // PIM: scatter accumulators

	failure error
}

// NewPageRank creates a PageRank workload running iters iterations.
func NewPageRank(iters int) *PageRank {
	if iters < 1 {
		iters = 1
	}
	return &PageRank{iters: iters}
}

// Name implements Workload.
func (w *PageRank) Name() string { return "pagerank" }

// Profile implements Workload.
func (w *PageRank) Profile() Profile { return Profile{PIMIntensity: 0.5, DivergenceRatio: 0.45} }

// Setup implements Workload.
func (w *PageRank) Setup(space *mem.Space, g *graph.Graph) {
	w.dev = NewDevice(space, g)
	w.rank = space.Alloc("pr.rank", g.NumV, false)
	w.sums = space.Alloc("pr.sums", g.NumV, true)
	init := math.Float32bits(1.0 / float32(g.NumV))
	for v := 0; v < g.NumV; v++ {
		space.Store32(w.rank.Addr(v), init)
	}
	space.FillU32(w.sums, 0)
}

// NextLaunch implements Workload.
func (w *PageRank) NextLaunch() (*gpu.Launch, bool) {
	if w.iter >= w.iters {
		return nil, false
	}
	var k simt.KernelFunc
	if w.phase == 0 {
		k = w.scatterKernel()
		w.phase = 1
	} else {
		k = w.applyKernel()
		w.phase = 0
		w.iter++
	}
	return &gpu.Launch{
		Kernel:   k,
		Blocks:   blocksFor(w.dev.G.NumV),
		BlockDim: BlockDim,
	}, true
}

// scatterKernel pushes rank[v]/outDeg(v) to every out-neighbour with
// atomic float adds.
func (w *PageRank) scatterKernel() simt.KernelFunc {
	d, rank, sums := w.dev, w.rank, w.sums
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		mask, v := laneVertices(c, numV)
		if !mask.Any() {
			return
		}
		r := c.Load(mask, rank, &v)
		start, end := d.loadRange(c, mask, &v)
		var hasEdges simt.Mask
		var share [simt.WarpSize]uint32
		for l := 0; l < simt.WarpSize; l++ {
			if deg := end[l] - start[l]; mask.Lane(l) && deg > 0 {
				hasEdges = hasEdges.Set(l)
				share[l] = math.Float32bits(math.Float32frombits(r[l]) / float32(deg))
			}
		}
		c.Compute(8) // the division
		if !hasEdges.Any() {
			return
		}
		var e edgeLoop
		e.threadCentric(c, d, hasEdges, &start, &end)
		for e.next() {
			c.Atomic(mem.AtomicFAdd, e.active, sums, &e.dst, &share, nil, false)
		}
	}
}

// applyKernel computes rank' = (1-d)/V + d×sum and clears the
// accumulators for the next iteration.
func (w *PageRank) applyKernel() simt.KernelFunc {
	d, rank, sums := w.dev, w.rank, w.sums
	numV := d.G.NumV
	base := (1 - float32(Damping)) / float32(numV)
	return func(c *simt.Ctx) {
		mask, v := laneVertices(c, numV)
		if !mask.Any() {
			return
		}
		s := c.Load(mask, sums, &v)
		var out [simt.WarpSize]uint32
		for l := 0; l < simt.WarpSize; l++ {
			out[l] = math.Float32bits(base + float32(Damping)*math.Float32frombits(s[l]))
		}
		c.Compute(6)
		c.Store(mask, rank, &v, &out)
		var zero [simt.WarpSize]uint32
		c.Store(mask, sums, &v, &zero)
	}
}

// Verify implements Workload: floating-point atomics accumulate in a
// timing-dependent order, so the comparison is tolerance-based.
func (w *PageRank) Verify() error {
	if w.failure != nil {
		return w.failure
	}
	want := graph.PageRankRef(w.dev.G, w.iters, Damping)
	for v := 0; v < w.dev.G.NumV; v++ {
		got := math.Float32frombits(w.dev.Space.Load32(w.rank.Addr(v)))
		diff := math.Abs(float64(got - want[v]))
		if diff > 1e-4+0.02*math.Abs(float64(want[v])) {
			return fmt.Errorf("pagerank: rank[%d] = %g, want %g", v, got, want[v])
		}
	}
	return nil
}
