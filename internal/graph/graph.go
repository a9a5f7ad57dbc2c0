// Package graph provides the graph substrate for the CoolPIM workloads:
// compressed-sparse-row graphs, an RMAT/Kronecker generator configured
// to produce LDBC-social-network-like power-law graphs (the paper's
// dataset), and sequential reference implementations of every GraphBIG
// kernel used in the evaluation, against which the simulated GPU
// kernels' results are verified.
package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// Infinity marks an unreached vertex in BFS/SSSP outputs.
const Infinity = ^uint32(0)

// Graph is a directed graph in CSR form. Edge weights are small positive
// integers (SSSP); unweighted kernels ignore them.
type Graph struct {
	NumV    int
	Offsets []uint32 // length NumV+1; edge range of vertex v is [Offsets[v], Offsets[v+1])
	Edges   []uint32 // destination vertex ids
	Weights []uint32 // per-edge weights, same length as Edges
}

// NumE returns the number of directed edges.
func (g *Graph) NumE() int { return len(g.Edges) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the destination slice of v's out-edges.
func (g *Graph) Neighbors(v int) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// EdgeWeights returns the weight slice of v's out-edges.
func (g *Graph) EdgeWeights(v int) []uint32 {
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.NumV+1 {
		return fmt.Errorf("graph: %d offsets for %d vertices", len(g.Offsets), g.NumV)
	}
	if g.Offsets[0] != 0 || int(g.Offsets[g.NumV]) != len(g.Edges) {
		return fmt.Errorf("graph: offset bounds [%d, %d] vs %d edges",
			g.Offsets[0], g.Offsets[g.NumV], len(g.Edges))
	}
	if len(g.Weights) != len(g.Edges) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Edges))
	}
	for v := 0; v < g.NumV; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotonic at %d", v)
		}
	}
	for i, e := range g.Edges {
		if int(e) >= g.NumV {
			return fmt.Errorf("graph: edge %d targets %d >= %d", i, e, g.NumV)
		}
	}
	for i, w := range g.Weights {
		if w == 0 || w == Infinity {
			return fmt.Errorf("graph: invalid weight %d at edge %d", w, i)
		}
	}
	return nil
}

// FromEdgeList builds a CSR graph from (src, dst, weight) triples,
// with each vertex's out-edges sorted by destination. (src, dst) pairs
// are expected to be unique; duplicates, which no caller passes, come
// out ordered by weight.
func FromEdgeList(numV int, src, dst, w []uint32) *Graph {
	if len(src) != len(dst) || len(src) != len(w) {
		panic("graph: edge list length mismatch")
	}
	g := &Graph{
		NumV:    numV,
		Offsets: make([]uint32, numV+1),
		Edges:   make([]uint32, len(src)),
		Weights: make([]uint32, len(src)),
	}
	for _, s := range src {
		g.Offsets[s+1]++
	}
	for v := 0; v < numV; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	// Counting sort by source, then sort each source's packed
	// dst<<32 | weight keys: the order by key is the order by
	// destination, and the weight rides along.
	keys := make([]uint64, len(src))
	next := slices.Clone(g.Offsets[:numV])
	for i, s := range src {
		keys[next[s]] = uint64(dst[i])<<32 | uint64(w[i])
		next[s]++
	}
	for v := 0; v < numV; v++ {
		slices.Sort(keys[g.Offsets[v]:g.Offsets[v+1]])
	}
	for i, k := range keys {
		g.Edges[i] = uint32(k >> 32)
		g.Weights[i] = uint32(k)
	}
	return g
}

// RMATParams configures the recursive-matrix generator.
type RMATParams struct {
	A, B, C float64 // quadrant probabilities; D = 1-A-B-C
	// MaxWeight bounds random edge weights (uniform in [1, MaxWeight]).
	MaxWeight uint32
	// MaxInDegree, when nonzero, rejects edges into vertices that have
	// reached the cap. Small RMAT instances are proportionally far more
	// hub-concentrated than the paper's LDBC social graphs; the cap
	// restores LDBC-like degree moderation so a single property-array
	// bank does not serialize the whole run.
	MaxInDegree int
}

// LDBCLikeParams returns RMAT parameters producing the heavy-tailed
// degree distribution of the LDBC social network benchmark graphs
// (Graph500-style skew: a=0.57, b=0.19, c=0.19).
func LDBCLikeParams() RMATParams {
	return RMATParams{A: 0.57, B: 0.19, C: 0.19, MaxWeight: 64, MaxInDegree: 256}
}

// GenRMAT generates a directed RMAT graph with 2^scale vertices and
// approximately edgeFactor × 2^scale edges (duplicates are removed), a
// deterministic function of seed.
func GenRMAT(scale, edgeFactor int, p RMATParams, seed int64) *Graph {
	return GenRMATRand(scale, edgeFactor, p, rand.New(rand.NewSource(seed)))
}

// GenRMATRand is GenRMAT threading an explicitly seeded generator, for
// callers that compose several graphs (or graphs plus workload inputs)
// from one reproducible stream.
func GenRMATRand(scale, edgeFactor int, p RMATParams, rng *rand.Rand) *Graph {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("graph: scale %d out of range", scale))
	}
	if p.A+p.B+p.C >= 1 || p.A <= 0 || p.B <= 0 || p.C <= 0 {
		panic("graph: invalid RMAT quadrant probabilities")
	}
	if p.MaxWeight == 0 {
		p.MaxWeight = 1
	}
	if scale <= 16 {
		return genRMAT[uint32](scale, edgeFactor, p, rng)
	}
	return genRMAT[uint64](scale, edgeFactor, p, rng)
}

// genRMAT is GenRMATRand with its duplicate check keyed by K: an edge
// (u, v) is the key u<<scale | v, so up to scale 16 a key fits in 32
// bits and the set's table, which nearly every insert misses into, is
// half the size.
func genRMAT[K uint32 | uint64](scale, edgeFactor int, p RMATParams, rng *rand.Rand) *Graph {
	numV := 1 << scale
	target := edgeFactor * numV
	th := p.thresholds()
	seen := newEdgeSet[K](target)
	inDeg := make([]int, numV)
	src := make([]uint32, 0, target)
	dst := make([]uint32, 0, target)
	wts := make([]uint32, 0, target)
	attempts := 0
	for len(src) < target {
		attempts++
		if attempts > 100*target {
			panic("graph: GenRMAT cannot place requested edges (cap too tight?)")
		}
		u, v := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			du, dv := quadrant(rng.Float64(), &th)
			u |= du << bit
			v |= dv << bit
		}
		if u == v {
			continue // no self loops
		}
		if p.MaxInDegree > 0 && inDeg[v] >= p.MaxInDegree {
			continue
		}
		if !seen.insert(K(u)<<scale | K(v)) {
			continue
		}
		inDeg[v]++
		src = append(src, uint32(u))
		dst = append(dst, uint32(v))
		wts = append(wts, 1+rng.Uint32()%p.MaxWeight)
	}
	// RMAT concentrates hubs at low vertex ids; real LDBC identifiers
	// carry no degree order. Scramble ids so hot vertices scatter across
	// the property arrays (and therefore across HMC vaults and banks).
	perm := rng.Perm(numV)
	for i := range src {
		src[i] = uint32(perm[src[i]])
		dst[i] = uint32(perm[dst[i]])
	}
	return FromEdgeList(numV, src, dst, wts)
}

// thresholds returns the descent's cumulative quadrant thresholds
// {A, A+B, A+B+C}, summed left to right: the float64 sums decide the
// quadrant of a draw at a boundary, and every generated graph depends
// on them.
func (p RMATParams) thresholds() [3]float64 {
	return [3]float64{p.A, p.A + p.B, p.A + p.B + p.C}
}

// quadrant is one level of the RMAT descent: it returns the bits that
// the quadrant a draw r picks sets in u and v, given the cumulative
// thresholds th = {A, A+B, A+B+C}. Top-left (r < A) sets neither bit,
// top-right v, bottom-left u and bottom-right both. The three
// comparisons become flags, not branches: the quadrants are taken
// 57/19/19/5 % of the time with the LDBC-like parameters, so a branch
// on them mispredicts often.
func quadrant(r float64, th *[3]float64) (du, dv int) {
	b1, b2, b3 := b2i(r >= th[0]), b2i(r >= th[1]), b2i(r >= th[2])
	return b2, b1 ^ b2 ^ b3
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// edgeSet is the generators' duplicate check: an open-addressing set of
// packed (u, v) edge keys with linear probing. Its power-of-two table
// has at least two slots per edge a generator places, so probes stay
// short and always reach an empty slot. Key 0 marks an empty slot: it is
// the self-loop (0, 0), which no generator inserts.
type edgeSet[K uint32 | uint64] struct {
	slots []K
	shift uint // 64 - log2(len(slots)): keeps a product's top bits
}

// newEdgeSet returns an empty set sized for n keys.
func newEdgeSet[K uint32 | uint64](n int) edgeSet[K] {
	b := bits.Len(uint(2*max(n, 1) - 1))
	return edgeSet[K]{slots: make([]K, 1<<b), shift: uint(64 - b)}
}

// insert adds key and reports whether it was absent.
func (s *edgeSet[K]) insert(key K) bool {
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: the top bits of key × 2^64/φ mix every key bit.
	for i := uint64(key) * 0x9e3779b97f4a7c15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			return true
		case key:
			return false
		}
	}
}

// GenUniform generates a directed Erdős–Rényi-style graph with numV
// vertices and numE distinct random edges.
func GenUniform(numV, numE int, seed int64) *Graph {
	return GenUniformRand(numV, numE, rand.New(rand.NewSource(seed)))
}

// GenUniformRand is GenUniform threading an explicitly seeded generator.
func GenUniformRand(numV, numE int, rng *rand.Rand) *Graph {
	if numV < 2 {
		panic("graph: need at least 2 vertices")
	}
	maxE := numV * (numV - 1)
	if numE > maxE/2 {
		panic(fmt.Sprintf("graph: %d edges too dense for %d vertices", numE, numV))
	}
	seen := newEdgeSet[uint64](numE)
	src := make([]uint32, 0, numE)
	dst := make([]uint32, 0, numE)
	wts := make([]uint32, 0, numE)
	for len(src) < numE {
		u := rng.Intn(numV)
		v := rng.Intn(numV)
		if u == v {
			continue
		}
		if !seen.insert(uint64(u)<<32 | uint64(v)) {
			continue
		}
		src = append(src, uint32(u))
		dst = append(dst, uint32(v))
		wts = append(wts, 1+rng.Uint32()%16)
	}
	return FromEdgeList(numV, src, dst, wts)
}

// InDegrees computes the in-degree of every vertex.
func (g *Graph) InDegrees() []uint32 {
	in := make([]uint32, g.NumV)
	for _, d := range g.Edges {
		in[d]++
	}
	return in
}

// DegreeHistogram returns counts of vertices bucketed by
// floor(log2(1+outDegree)); useful to confirm the power-law skew.
func (g *Graph) DegreeHistogram() []int {
	var hist []int
	for v := 0; v < g.NumV; v++ {
		d := g.OutDegree(v)
		bucket := 0
		for d > 0 {
			bucket++
			d >>= 1
		}
		for len(hist) <= bucket {
			hist = append(hist, 0)
		}
		hist[bucket]++
	}
	return hist
}

// MaxOutDegree returns the largest out-degree and its vertex.
func (g *Graph) MaxOutDegree() (vertex, degree int) {
	for v := 0; v < g.NumV; v++ {
		if d := g.OutDegree(v); d > degree {
			vertex, degree = v, d
		}
	}
	return vertex, degree
}
