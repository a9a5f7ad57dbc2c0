package graph

import "container/heap"

// This file holds the sequential reference implementations of the
// GraphBIG kernels. The simulated GPU kernels must produce identical
// results (bit-exact for integer kernels, tolerance-checked for
// PageRank); the integration tests enforce this.

// BFSLevels returns the BFS level of every vertex from src (Infinity for
// unreachable vertices).
func BFSLevels(g *Graph, src int) []uint32 {
	level := make([]uint32, g.NumV)
	for i := range level {
		level[i] = Infinity
	}
	level[src] = 0
	frontier := []int{src}
	for depth := uint32(1); len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, n := range g.Neighbors(v) {
				if level[n] == Infinity {
					level[n] = depth
					next = append(next, int(n))
				}
			}
		}
		frontier = next
	}
	return level
}

type pqItem struct {
	v    int
	dist uint32
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() (popped any) { old := *p; n := len(old); popped = old[n-1]; *p = old[:n-1]; return }

// SSSPDistances returns single-source shortest-path distances from src
// using Dijkstra's algorithm (all weights positive).
func SSSPDistances(g *Graph, src int) []uint32 {
	dist := make([]uint32, g.NumV)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	q := pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		nbrs := g.Neighbors(it.v)
		wts := g.EdgeWeights(it.v)
		for i, n := range nbrs {
			if nd := it.dist + wts[i]; nd < dist[n] {
				dist[n] = nd
				heap.Push(&q, pqItem{int(n), nd})
			}
		}
	}
	return dist
}

// PageRankRef runs the push-style fixed-iteration PageRank the GPU
// kernel implements: each iteration pushes rank/outDegree along every
// edge, then applies the damping update. Returns the final ranks.
func PageRankRef(g *Graph, iters int, damping float32) []float32 {
	rank := make([]float32, g.NumV)
	for i := range rank {
		rank[i] = 1.0 / float32(g.NumV)
	}
	sums := make([]float32, g.NumV)
	for it := 0; it < iters; it++ {
		for i := range sums {
			sums[i] = 0
		}
		for v := 0; v < g.NumV; v++ {
			d := g.OutDegree(v)
			if d == 0 {
				continue
			}
			share := rank[v] / float32(d)
			for _, n := range g.Neighbors(v) {
				sums[n] += share
			}
		}
		base := (1 - damping) / float32(g.NumV)
		for v := 0; v < g.NumV; v++ {
			rank[v] = base + damping*sums[v]
		}
	}
	return rank
}

// DegreeCentrality returns in-degree + out-degree per vertex (the
// GraphBIG dc kernel counts both by atomically incrementing per-vertex
// counters while streaming the edge list).
func DegreeCentrality(g *Graph) []uint32 {
	dc := make([]uint32, g.NumV)
	for v := 0; v < g.NumV; v++ {
		dc[v] += uint32(g.OutDegree(v))
	}
	for _, d := range g.Edges {
		dc[d]++
	}
	return dc
}

// ConnectedComponents labels the weakly connected components of the
// graph (treating edges as undirected) and returns per-vertex labels
// (the minimum vertex id in each component) and the component count.
func ConnectedComponents(g *Graph) (labels []uint32, count int) {
	labels = make([]uint32, g.NumV)
	for i := range labels {
		labels[i] = uint32(i)
	}
	// Label propagation to fixpoint: min label over undirected edges.
	changed := true
	for changed {
		changed = false
		for v := 0; v < g.NumV; v++ {
			for _, n := range g.Neighbors(v) {
				lv, ln := labels[v], labels[n]
				switch {
				case lv < ln:
					labels[n] = lv
					changed = true
				case ln < lv:
					labels[v] = ln
					changed = true
				}
			}
		}
	}
	seen := make(map[uint32]bool)
	for _, l := range labels {
		seen[l] = true
	}
	return labels, len(seen)
}

// KCoreOutDecrement is the exact sequential mirror of the GPU kcore
// kernel's semantics: degrees start at in+out, and removing a vertex
// decrements the degrees of its *out*-neighbours only (the device holds
// a forward CSR). The removal set is the least fixpoint of a monotone
// threshold process, so it is order-independent — the GPU's concurrent
// schedule and this sequential loop converge to identical results.
func KCoreOutDecrement(g *Graph, k uint32) (alive []bool, remaining int) {
	deg := make([]uint32, g.NumV)
	for v := 0; v < g.NumV; v++ {
		deg[v] += uint32(g.OutDegree(v))
	}
	for _, d := range g.Edges {
		deg[d]++
	}
	alive = make([]bool, g.NumV)
	for v := range alive {
		alive[v] = true
	}
	changed := true
	for changed {
		changed = false
		for v := 0; v < g.NumV; v++ {
			if !alive[v] || deg[v] >= k {
				continue
			}
			alive[v] = false
			changed = true
			for _, n := range g.Neighbors(v) {
				deg[n]-- // may wrap for removed vertices; never re-read
			}
		}
	}
	for v := 0; v < g.NumV; v++ {
		if alive[v] {
			remaining++
		}
	}
	return alive, remaining
}
