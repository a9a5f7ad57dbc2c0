package kernels

import (
	"testing"

	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// runFunctional executes a workload to completion with a functional-only
// executor: all warps of each launch run round-robin, one op at a time,
// with memory ops serviced directly against the functional memory. This
// validates kernel logic (including inter-warp atomic interleavings)
// independently of the timing stack.
func runFunctional(t *testing.T, w Workload, g *graph.Graph) {
	t.Helper()
	space := SpaceFor(g)
	w.Setup(space, g)
	launches := 0
	for {
		l, ok := w.NextLaunch()
		if !ok {
			break
		}
		launches++
		if launches > 100000 {
			t.Fatalf("%s: runaway launch loop", w.Name())
		}
		execLaunchFunctional(l, space)
	}
	if launches == 0 {
		t.Fatalf("%s produced no launches", w.Name())
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// execLaunchFunctional runs every warp of the launch round-robin.
func execLaunchFunctional(l *gpu.Launch, space *mem.Space) {
	warpsPerBlock := l.BlockDim / simt.WarpSize
	var runs []*simt.WarpRun
	for b := 0; b < l.Blocks; b++ {
		for w := 0; w < warpsPerBlock; w++ {
			runs = append(runs, simt.StartWarp(l.Kernel, simt.Ctx{
				BlockID:     b,
				WarpInBlock: w,
				GlobalWarp:  b*warpsPerBlock + w,
				BlockDim:    l.BlockDim,
				GridDim:     l.Blocks,
			}))
		}
	}
	// Per-warp outstanding async load (address/mask copies).
	type asyncState struct {
		addr [simt.WarpSize]uint64
		mask simt.Mask
	}
	async := make([]asyncState, len(runs))
	live := len(runs)
	for live > 0 {
		for i, r := range runs {
			if r.Done() {
				continue
			}
			op, ok := r.Next()
			if !ok {
				live--
				continue
			}
			serviceOp(op, space, &async[i].addr, &async[i].mask)
		}
	}
}

func serviceOp(op *simt.Op, space *mem.Space, asyncAddr *[simt.WarpSize]uint64, asyncMask *simt.Mask) {
	switch op.Kind {
	case simt.OpLoadAsync:
		*asyncAddr = op.Addr
		*asyncMask = op.Mask
		return
	case simt.OpWait:
		for lane := 0; lane < simt.WarpSize; lane++ {
			if asyncMask.Lane(lane) {
				op.Out[lane] = space.Load32(asyncAddr[lane])
			}
		}
		return
	}
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !op.Mask.Lane(lane) {
			continue
		}
		switch op.Kind {
		case simt.OpLoad:
			op.Out[lane] = space.Load32(op.Addr[lane])
		case simt.OpStore:
			space.Store32(op.Addr[lane], op.Val[lane])
		case simt.OpAtomic:
			old, ok := space.Atomic(op.Atomic, op.Addr[lane], op.Val[lane], op.Cmp[lane])
			op.Out[lane], op.OutOK[lane] = old, ok
		}
	}
}

// testGraphs returns the graph zoo every workload must be correct on.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat-small":   graph.GenRMAT(8, 8, graph.LDBCLikeParams(), 11),
		"rmat-skewed":  graph.GenRMAT(9, 4, graph.LDBCLikeParams(), 23),
		"uniform":      graph.GenUniform(300, 2400, 7),
		"sparse-chain": chainGraph(200),
	}
}

// chainGraph builds a long path 0->1->...->n-1 (deep BFS/SSSP, many
// iterations, single-lane frontiers).
func chainGraph(n int) *graph.Graph {
	src := make([]uint32, n-1)
	dst := make([]uint32, n-1)
	wt := make([]uint32, n-1)
	for i := 0; i < n-1; i++ {
		src[i] = uint32(i)
		dst[i] = uint32(i + 1)
		wt[i] = uint32(i%7 + 1)
	}
	return graph.FromEdgeList(n, src, dst, wt)
}

func TestAllWorkloadsFunctional(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, wname := range Names() {
			t.Run(wname+"/"+gname, func(t *testing.T) {
				w, err := New(wname)
				if err != nil {
					t.Fatal(err)
				}
				runFunctional(t, w, g)
			})
		}
	}
}

func TestWorkloadRegistry(t *testing.T) {
	if len(Names()) != 10 {
		t.Fatalf("%d workloads, want the 10 of Fig. 10", len(Names()))
	}
	for _, n := range Names() {
		w, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != n {
			t.Errorf("workload %q reports name %q", n, w.Name())
		}
		p := w.Profile()
		if p.PIMIntensity <= 0 || p.PIMIntensity > 1 {
			t.Errorf("%s intensity %v out of (0,1]", n, p.PIMIntensity)
		}
		if p.DivergenceRatio < 0 || p.DivergenceRatio >= 1 {
			t.Errorf("%s divergence %v out of [0,1)", n, p.DivergenceRatio)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWorkloadProfilesMatchPaper: warp-centric traversals must be
// profiled with low divergence and high intensity relative to
// thread-centric ones, and kcore/sssp-dtc must be the low-intensity
// pair the paper calls out.
func TestWorkloadProfilesMatchPaper(t *testing.T) {
	prof := func(n string) Profile {
		w, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		return w.Profile()
	}
	if prof("bfs-twc").DivergenceRatio >= prof("bfs-ta").DivergenceRatio {
		t.Error("warp-centric BFS should diverge less than thread-centric")
	}
	for _, low := range []string{"kcore", "sssp-dtc"} {
		for _, high := range []string{"dc", "bfs-twc", "bfs-dwc", "pagerank"} {
			if prof(low).PIMIntensity >= prof(high).PIMIntensity {
				t.Errorf("%s intensity should be below %s", low, high)
			}
		}
	}
}

func TestTopSources(t *testing.T) {
	g := graph.GenRMAT(8, 8, graph.LDBCLikeParams(), 3)
	src := topSources(g, 3)
	if len(src) != 3 {
		t.Fatalf("%d sources", len(src))
	}
	if g.OutDegree(src[0]) < g.OutDegree(src[1]) || g.OutDegree(src[1]) < g.OutDegree(src[2]) {
		t.Error("sources not degree-sorted")
	}
	if len(topSources(g, 10000)) != g.NumV {
		t.Error("topSources overflow not clamped")
	}
}

func TestBlocksFor(t *testing.T) {
	if blocksFor(0) != 1 || blocksFor(1) != 1 || blocksFor(128) != 1 || blocksFor(129) != 2 {
		t.Error("blocksFor wrong")
	}
}

func TestBFSRejectsDTC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bfs-dtc accepted")
		}
	}()
	NewBFS(VariantDataThread, 1)
}

func TestSSSPRejectsTA(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("sssp-ta accepted")
		}
	}()
	NewSSSP(VariantTopoAtomic, 1)
}

func TestVariantNames(t *testing.T) {
	if VariantTopoAtomic.String() != "ta" || VariantDataWarp.String() != "dwc" ||
		VariantDataThread.String() != "dtc" {
		t.Error("variant names wrong")
	}
}
