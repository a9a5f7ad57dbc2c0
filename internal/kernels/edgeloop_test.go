package kernels

import (
	"testing"

	"coolpim/internal/graph"
	"coolpim/internal/mem"
	"coolpim/internal/simt"
)

// TestEdgeLoopAllocsFlat guards the edge loops' allocations: a warp that
// walks N edge batches and one that walks 2N allocate the same, so no
// batch moves a lane vector to the heap. Handing &idx or &dst to a loop
// body through a func value does exactly that on every batch, and no
// output, digest or timing test notices. Each batch's body is the
// heaviest the workloads issue: a returning atomicMin and, for the lanes
// it improved, a frontier push (a returning atomicAdd and a store).
func TestEdgeLoopAllocsFlat(t *testing.T) {
	for _, tc := range []struct {
		name   string
		thread bool
	}{{"thread-centric", true}, {"warp-centric", false}} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(batches int) (perWarp float64, ops int) {
				// Lane l's vertex l has batches out-edges, so the
				// thread-centric loop takes batches steps; the
				// warp-centric one walks all 32×batches edges.
				n := simt.WarpSize * (batches + 1)
				var src, dst, wt []uint32
				for v := 0; v < simt.WarpSize; v++ {
					for j := 0; j < batches; j++ {
						src = append(src, uint32(v))
						dst = append(dst, uint32(simt.WarpSize+v*batches+j))
						wt = append(wt, 1)
					}
				}
				g := graph.FromEdgeList(n, src, dst, wt)
				space := SpaceFor(g)
				d := NewDevice(space, g)
				front := frontier{space.Alloc("front", n, false), space.Alloc("counts", 1, false), 0}
				vals := space.Alloc("vals", n, true)
				kernel := func(c *simt.Ctx) {
					one := splat(1)
					var e edgeLoop
					if tc.thread {
						mask, v := laneVertices(c, simt.WarpSize)
						start, end := d.loadRange(c, mask, &v)
						e.threadCentric(c, d, mask, &start, &end)
					} else {
						e.warpCentric(c, d, 0, uint32(g.NumE()))
					}
					for e.next() {
						_, ok := c.Atomic(mem.AtomicMin, e.active, vals, &e.dst, &one, nil, true)
						if improved := succeeded(e.active, &ok); improved.Any() {
							front.push(c, improved, &e.dst)
						}
					}
				}
				run := func() {
					space.FillU32(vals, graph.Infinity)
					space.Store32(front.counts.Addr(0), 0)
					w := simt.StartWarp(kernel, simt.Ctx{BlockDim: simt.WarpSize, GridDim: 1})
					var asyncAddr [simt.WarpSize]uint64
					var asyncMask simt.Mask
					ops = 0
					for {
						op, ok := w.Next()
						if !ok {
							break
						}
						ops++
						serviceOp(op, space, &asyncAddr, &asyncMask)
					}
				}
				return testing.AllocsPerRun(20, run), ops
			}
			a1, ops1 := allocs(8)
			a2, ops2 := allocs(16)
			if ops2 <= ops1 {
				t.Fatalf("%d ops at 16 batches, %d at 8: the loop is not walking its batches", ops2, ops1)
			}
			if a1 != a2 {
				t.Errorf("a warp allocates %v times over 8 edge batches and %v over 16, want the same", a1, a2)
			}
		})
	}
}
