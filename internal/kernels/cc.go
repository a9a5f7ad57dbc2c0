package kernels

import (
	"fmt"

	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// CC is connected components by label propagation — a GraphBIG workload
// beyond the paper's Fig. 10 set, included as an extension. Each sweep
// pushes min(label[v], label[dst]) across every edge in both directions
// with atomicMin until a fixpoint; labels live in the PIM region, so
// every propagation is a PIM-offloadable atomic.
type CC struct {
	rounds int
	round  int

	dev     *Device
	labels  mem.Buffer // PIM: component labels
	changed mem.Buffer

	phaseInit bool
	failure   error
}

// NewCC creates a connected-components workload repeated `rounds` times.
func NewCC(rounds int) *CC {
	if rounds < 1 {
		rounds = 1
	}
	return &CC{rounds: rounds, phaseInit: true}
}

// Name implements Workload.
func (w *CC) Name() string { return "cc" }

// Profile implements Workload: warp-centric sweeps, moderate intensity
// (propagations dry up as labels converge).
func (w *CC) Profile() Profile { return Profile{PIMIntensity: 0.5, DivergenceRatio: 0.2} }

// Setup implements Workload.
func (w *CC) Setup(space *mem.Space, g *graph.Graph) {
	w.dev = NewDevice(space, g)
	w.changed = space.Alloc("cc.changed", 1, false)
	w.labels = space.Alloc("cc.labels", g.NumV, true)
}

func (w *CC) initRound() {
	s := w.dev.Space
	for v := 0; v < w.dev.G.NumV; v++ {
		s.Store32(w.labels.Addr(v), uint32(v))
	}
	s.Store32(w.changed.Addr(0), 1)
	w.phaseInit = false
}

// NextLaunch implements Workload.
func (w *CC) NextLaunch() (*gpu.Launch, bool) {
	s := w.dev.Space
	for {
		if w.phaseInit {
			if w.round >= w.rounds {
				return nil, false
			}
			w.initRound()
			s.Store32(w.changed.Addr(0), 0)
		} else {
			if s.Load32(w.changed.Addr(0)) == 0 {
				w.verifyRound()
				w.round++
				w.phaseInit = true
				continue
			}
			s.Store32(w.changed.Addr(0), 0)
		}
		k := w.kernel()
		return &gpu.Launch{
			Name:     fmt.Sprintf("cc.r%d", w.round),
			Kernel:   k,
			Blocks:   gridBlocksStrided,
			BlockDim: BlockDim,
		}, true
	}
}

// kernel: warps stride over 32-vertex chunks; for each vertex the warp
// propagates the smaller label across its out-edges in both directions.
// Propagation uses with-return atomicMin so the sweep knows whether a
// fixpoint was reached.
func (w *CC) kernel() simt.KernelFunc {
	d, labels, changed := w.dev, w.labels, w.changed
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		stride := c.GridDim * c.BlockDim / simt.WarpSize * simt.WarpSize
		improvedAny := false
		for base := c.GlobalWarp * simt.WarpSize; base < numV; base += stride {
			chunk, lv := scanChunk(c, labels, base, numV)
			var vid [simt.WarpSize]uint32
			for l := 0; l < simt.WarpSize; l++ {
				vid[l] = uint32(base + l)
			}
			if !chunk.Any() {
				continue
			}
			start, end := d.loadRange(c, chunk, vid)
			for l := 0; l < simt.WarpSize; l++ {
				if !chunk.Lane(l) {
					continue
				}
				myLabel := lv[l]
				myAddr := labels.Addr(int(vid[l]))
				d.edgeLoopWarpCentric(c, start[l], end[l], func(active simt.Mask, _, dst [simt.WarpSize]uint32) {
					// Forward: label[dst] = min(label[dst], myLabel).
					_, ok := c.Atomic(mem.AtomicMin, active, gather(labels, active, &dst),
						splat(myLabel), [simt.WarpSize]uint32{}, true)
					// Backward: myLabel = min over dst labels, applied to
					// label[v] by lane 0.
					dl := c.Load(active, gather(labels, active, &dst))
					back := myLabel
					for j := 0; j < simt.WarpSize; j++ {
						if active.Lane(j) {
							if ok[j] {
								improvedAny = true
							}
							if dl[j] < back {
								back = dl[j]
							}
						}
					}
					if back < myLabel {
						var addr [simt.WarpSize]uint64
						addr[0] = myAddr
						_, bok := c.Atomic(mem.AtomicMin, simt.LaneMask(0), addr,
							splat(back), [simt.WarpSize]uint32{}, true)
						if bok[0] {
							improvedAny = true
						}
						myLabel = back
					}
				})
			}
		}
		if improvedAny {
			raiseChanged(c, changed)
		}
	}
}

func (w *CC) verifyRound() {
	if w.failure != nil {
		return
	}
	wantLabels, wantCount := graph.ConnectedComponents(w.dev.G)
	count := map[uint32]bool{}
	for v := 0; v < w.dev.G.NumV; v++ {
		got := w.dev.Space.Load32(w.labels.Addr(v))
		if got != wantLabels[v] {
			w.failure = fmt.Errorf("cc: label[%d] = %d, want %d", v, got, wantLabels[v])
			return
		}
		count[got] = true
	}
	if len(count) != wantCount {
		w.failure = fmt.Errorf("cc: %d components, want %d", len(count), wantCount)
	}
}

// Verify implements Workload.
func (w *CC) Verify() error { return w.failure }
