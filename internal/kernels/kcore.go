package kernels

import (
	"fmt"

	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// KCore is the k-core decomposition workload: iteratively remove
// vertices whose (in+out) degree falls below k, atomically decrementing
// their out-neighbours' degrees. Atomics fire only on removals, so its
// PIM offloading rate is naturally low — the paper's example (with
// sssp-dtc) of a workload that never trips the thermal limit.
type KCore struct {
	k      uint32
	rounds int
	round  int

	dev     *Device
	deg     mem.Buffer // PIM: current degrees
	alive   mem.Buffer // cacheable: 1 = still in the core
	changed mem.Buffer

	phaseInit bool
	failure   error
}

// NewKCore creates a k-core workload repeated `rounds` times (see NewDC
// on repetition).
func NewKCore(k uint32, rounds int) *KCore {
	if rounds < 1 {
		rounds = 1
	}
	return &KCore{k: k, rounds: rounds, phaseInit: true}
}

// Name implements Workload.
func (w *KCore) Name() string { return "kcore" }

// Profile implements Workload.
func (w *KCore) Profile() Profile { return Profile{PIMIntensity: 0.08, DivergenceRatio: 0.6} }

// Setup implements Workload.
func (w *KCore) Setup(space *mem.Space, g *graph.Graph) {
	w.dev = NewDevice(space, g)
	w.alive = space.Alloc("kcore.alive", g.NumV, false)
	w.changed = space.Alloc("kcore.changed", 1, false)
	w.deg = space.Alloc("kcore.deg", g.NumV, true)
}

func (w *KCore) initRound() {
	s := w.dev.Space
	g := w.dev.G
	in := g.InDegrees()
	for v := 0; v < g.NumV; v++ {
		s.Store32(w.deg.Addr(v), uint32(g.OutDegree(v))+in[v])
		s.Store32(w.alive.Addr(v), 1)
	}
	s.Store32(w.changed.Addr(0), 1) // force at least one sweep
	w.phaseInit = false
}

// NextLaunch implements Workload.
func (w *KCore) NextLaunch() (*gpu.Launch, bool) {
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
			Name:     fmt.Sprintf("kcore.r%d", w.round),
			Kernel:   k,
			Blocks:   blocksFor(w.dev.G.NumV),
			BlockDim: BlockDim,
		}, true
	}
}

func (w *KCore) kernel() simt.KernelFunc {
	d, deg, alive, changed := w.dev, w.deg, w.alive, w.changed
	k := w.k
	numV := d.G.NumV
	return func(c *simt.Ctx) {
		mask, v := laneVertices(c, numV)
		if !mask.Any() {
			return
		}
		al := c.Load(mask, gather(alive, mask, &v))
		var live simt.Mask
		for l := 0; l < simt.WarpSize; l++ {
			if mask.Lane(l) && al[l] == 1 {
				live = live.Set(l)
			}
		}
		if !live.Any() {
			return
		}
		dg := c.Load(live, gather(deg, live, &v))
		var drop simt.Mask
		for l := 0; l < simt.WarpSize; l++ {
			if live.Lane(l) && dg[l] < k {
				drop = drop.Set(l)
			}
		}
		if !drop.Any() {
			return
		}
		c.Store(drop, gather(alive, drop, &v), splat(0))
		start, end := d.loadRange(c, drop, v)
		d.edgeLoopThreadCentric(c, drop, start, end, func(active simt.Mask, _, dst [simt.WarpSize]uint32) {
			c.Atomic(mem.AtomicSub, active, gather(deg, active, &dst), splat(1), [simt.WarpSize]uint32{}, false)
		})
		var addr [simt.WarpSize]uint64
		addr[0] = changed.Addr(0)
		c.Atomic(mem.AtomicOr, simt.LaneMask(0), addr, splat(1), [simt.WarpSize]uint32{}, false)
	}
}

func (w *KCore) verifyRound() {
	if w.failure != nil {
		return
	}
	wantAlive, wantRemaining := graph.KCoreOutDecrement(w.dev.G, w.k)
	remaining := 0
	for v := 0; v < w.dev.G.NumV; v++ {
		got := w.dev.Space.Load32(w.alive.Addr(v)) == 1
		if got != wantAlive[v] {
			w.failure = fmt.Errorf("kcore: vertex %d alive=%v, want %v", v, got, wantAlive[v])
			return
		}
		if got {
			remaining++
		}
	}
	if remaining != wantRemaining {
		w.failure = fmt.Errorf("kcore: %d remaining, want %d", remaining, wantRemaining)
	}
}

// Verify implements Workload.
func (w *KCore) Verify() error { return w.failure }
