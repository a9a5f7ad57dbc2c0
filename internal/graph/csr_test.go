package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fromEdgeListSort is the comparison-sort CSR build FromEdgeList
// replaced, kept as its oracle: it sorts whole (src, dst, weight)
// triples by source, then destination.
func fromEdgeListSort(numV int, src, dst, w []uint32) *Graph {
	type edge struct{ s, d, w uint32 }
	edges := make([]edge, len(src))
	for i := range src {
		edges[i] = edge{src[i], dst[i], w[i]}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].s != edges[j].s {
			return edges[i].s < edges[j].s
		}
		return edges[i].d < edges[j].d
	})
	g := &Graph{
		NumV:    numV,
		Offsets: make([]uint32, numV+1),
		Edges:   make([]uint32, len(edges)),
		Weights: make([]uint32, len(edges)),
	}
	for _, e := range edges {
		g.Offsets[e.s+1]++
	}
	for v := 0; v < numV; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	for i, e := range edges {
		g.Edges[i] = e.d
		g.Weights[i] = e.w
	}
	return g
}

// edgeList is a list of (src, dst, weight) triples with unique
// (src, dst) pairs.
type edgeList struct {
	numV        int
	src, dst, w []uint32
}

func (l *edgeList) add(s, d, w uint32) {
	l.src, l.dst, l.w = append(l.src, s), append(l.dst, d), append(l.w, w)
}

// TestFromEdgeListMatchesSortReference requires FromEdgeList to build the
// same CSR arrays as the comparison-sort reference from the same edges
// in several shuffled orders.
func TestFromEdgeListMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	// A hub with 2,500 out-edges among low-degree sources. Edges join
	// odd vertices only, so every even vertex, vertex 0 among them, is
	// isolated; the last vertex has in-edges but no out-edges.
	hub := edgeList{numV: 8192}
	odd := func(k int) uint32 { return uint32(2*k + 1) }
	for _, k := range rng.Perm(hub.numV / 2)[:2500] {
		hub.add(7, odd(k), 1+rng.Uint32()%64)
	}
	for s := uint32(1); s < uint32(hub.numV-1); s += 2 {
		if s == 7 {
			continue
		}
		for _, k := range rng.Perm(hub.numV / 2)[:rng.Intn(12)] {
			hub.add(s, odd(k), 1+rng.Uint32()%64)
		}
	}

	// Destinations near 2^30, the largest ids a scale-30 RMAT graph
	// has, and weights across the whole uint32 range: every bit of both
	// halves of a packed key must survive. FromEdgeList does not bound
	// destinations, so numV stays small.
	high := edgeList{numV: 16}
	for s := uint32(0); s < 16; s += 3 {
		for k := uint32(0); k < 40; k++ {
			high.add(s, 1<<30-1-k, rng.Uint32())
		}
	}
	high.add(1, 1<<30-1, 0)
	high.add(1, 1<<30-2, ^uint32(0))

	single := edgeList{numV: 3}
	single.add(2, 0, 9)

	for _, c := range []struct {
		name string
		l    edgeList
	}{{"hub", hub}, {"high", high}, {"single", single}, {"empty", edgeList{numV: 4}}} {
		l := c.l
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				rng.Shuffle(len(l.src), func(i, j int) {
					l.src[i], l.src[j] = l.src[j], l.src[i]
					l.dst[i], l.dst[j] = l.dst[j], l.dst[i]
					l.w[i], l.w[j] = l.w[j], l.w[i]
				})
				want := fromEdgeListSort(l.numV, l.src, l.dst, l.w)
				got := FromEdgeList(l.numV, l.src, l.dst, l.w)
				if got.NumV != want.NumV || !slices.Equal(got.Offsets, want.Offsets) ||
					!slices.Equal(got.Edges, want.Edges) || !slices.Equal(got.Weights, want.Weights) {
					t.Fatalf("round %d: CSR differs from the sort reference", round)
				}
			}
		})
	}
}
