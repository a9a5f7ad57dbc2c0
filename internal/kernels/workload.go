package kernels

import (
	"fmt"
	"sort"

	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/mem"
)

// Profile carries the per-workload estimates SW-DynT's Eq. 1 static
// analysis produces at compile time: the PIM instruction intensity
// (fraction of the hardware peak offloading rate the kernel drives when
// fully PIM-enabled) and the expected ratio of divergent warps (from
// algorithm knowledge: topology-driven kernels are highly divergent,
// warp-centric ones are not).
type Profile struct {
	PIMIntensity    float64
	DivergenceRatio float64
}

// Workload is one GraphBIG benchmark: a sequence of data-dependent
// kernel launches plus result verification against the sequential
// reference.
type Workload interface {
	Name() string
	Profile() Profile
	// Setup allocates and initializes device buffers.
	Setup(space *mem.Space, g *graph.Graph)
	// NextLaunch returns the next kernel launch, or ok=false when the
	// algorithm has converged. The harness sets OnComplete.
	NextLaunch() (l *gpu.Launch, ok bool)
	// Verify checks device results against the sequential reference.
	Verify() error
}

// BlockDim is the CUDA block size all workloads launch with (4 warps).
const BlockDim = 128

// blocksFor returns the grid size covering n threads.
func blocksFor(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + BlockDim - 1) / BlockDim
}

// Names lists the Fig. 10 workloads in presentation order.
func Names() []string {
	return []string{
		"dc", "bfs-ta", "bfs-dwc", "bfs-twc", "bfs-ttc",
		"sssp-dwc", "sssp-twc", "sssp-dtc", "kcore", "pagerank",
	}
}

// New constructs a fresh workload by name with default parameters
// (sized for unit tests and quick runs).
func New(name string) (Workload, error) { return NewSized(name, 2) }

// NewSized constructs a workload by name with its repetition count
// (traversal sources, recomputation rounds, or PageRank iteration pairs)
// scaled by reps. Larger reps extend the simulated runtime well past the
// thermal time constant, standing in for the paper's much larger LDBC
// inputs (see DESIGN.md §2).
func NewSized(name string, reps int) (Workload, error) {
	if reps < 1 {
		reps = 1
	}
	switch name {
	case "dc":
		return NewDC(reps), nil
	case "pagerank":
		return NewPageRank(3 * reps), nil
	case "kcore":
		// k-core rounds are short scans; scale the recomputation count
		// so its runtime is comparable to the other workloads.
		return NewKCore(8, 24*reps), nil
	case "bfs-ta":
		return NewBFS(VariantTopoAtomic, reps), nil
	case "bfs-ttc":
		return NewBFS(VariantTopoThreadCAS, reps), nil
	case "bfs-twc":
		return NewBFS(VariantTopoWarp, reps), nil
	case "bfs-dwc":
		return NewBFS(VariantDataWarp, reps), nil
	case "sssp-dwc":
		return NewSSSP(VariantDataWarp, reps), nil
	case "sssp-twc":
		return NewSSSP(VariantTopoWarp, reps), nil
	case "sssp-dtc":
		return NewSSSP(VariantDataThread, reps), nil
	}
	return nil, fmt.Errorf("kernels: unknown workload %q", name)
}

// topSources returns the n highest-out-degree vertices (deterministic
// tie-break by id) — the traversal sources for BFS/SSSP runs.
func topSources(g *graph.Graph, n int) []int {
	type vd struct{ v, d int }
	all := make([]vd, g.NumV)
	for v := 0; v < g.NumV; v++ {
		all[v] = vd{v, g.OutDegree(v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].v < all[j].v
	})
	if n > len(all) {
		n = len(all)
	}
	src := make([]int, n)
	for i := 0; i < n; i++ {
		src[i] = all[i].v
	}
	return src
}
