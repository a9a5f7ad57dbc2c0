package kernels

import (
	"fmt"

	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// DC is the degree-centrality workload: stream every vertex's edge list
// and atomically increment both endpoints' counters. One atomicAdd per
// edge makes it one of the highest PIM-intensity kernels (it tops the
// paper's Fig. 10 speedups).
type DC struct {
	rounds int
	round  int
	dev    *Device
	dc     mem.Buffer
}

// NewDC creates a degree-centrality workload that recomputes the
// centrality `rounds` times (GraphBIG runs once on a huge graph; the
// repetition keeps simulated runtimes well past the thermal time
// constant on our smaller inputs — see DESIGN.md).
func NewDC(rounds int) *DC {
	if rounds < 1 {
		rounds = 1
	}
	return &DC{rounds: rounds}
}

// Name implements Workload.
func (w *DC) Name() string { return "dc" }

// Profile implements Workload: thread-centric edge streaming —
// moderately divergent, very atomic-heavy.
func (w *DC) Profile() Profile { return Profile{PIMIntensity: 0.6, DivergenceRatio: 0.45} }

// Setup implements Workload.
func (w *DC) Setup(space *mem.Space, g *graph.Graph) {
	w.dev = NewDevice(space, g)
	w.dc = space.Alloc("dc.counts", g.NumV, true)
	space.FillU32(w.dc, 0)
}

// NextLaunch implements Workload.
func (w *DC) NextLaunch() (*gpu.Launch, bool) {
	if w.round >= w.rounds {
		return nil, false
	}
	if w.round > 0 {
		// Host-side reset between rounds (cudaMemset, untimed).
		w.dev.Space.FillU32(w.dc, 0)
	}
	w.round++
	k := w.kernel()
	return &gpu.Launch{
		Kernel:   k,
		Blocks:   blocksFor(w.dev.G.NumV),
		BlockDim: BlockDim,
	}, true
}

func (w *DC) kernel() simt.KernelFunc {
	d := w.dev
	dc := w.dc
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		mask, v := laneVertices(c, numV)
		if !mask.Any() {
			return
		}
		start, end := d.loadRange(c, mask, &v)
		// Credit each vertex its out-degree with one atomic.
		var deg [simt.WarpSize]uint32
		for l := 0; l < simt.WarpSize; l++ {
			deg[l] = end[l] - start[l]
		}
		c.Compute(2)
		c.Atomic(mem.AtomicAdd, mask, dc, &v, &deg, nil, false)
		// Stream the edge lists, crediting destinations.
		one := splat(1)
		var e edgeLoop
		e.threadCentric(c, d, mask, &start, &end)
		for e.next() {
			c.Atomic(mem.AtomicAdd, e.active, dc, &e.dst, &one, nil, false)
		}
	}
}

// Verify implements Workload.
func (w *DC) Verify() error {
	want := graph.DegreeCentrality(w.dev.G)
	for v := 0; v < w.dev.G.NumV; v++ {
		if got := w.dev.Space.Load32(w.dc.Addr(v)); got != want[v] {
			return fmt.Errorf("dc: vertex %d = %d, want %d", v, got, want[v])
		}
	}
	return nil
}
