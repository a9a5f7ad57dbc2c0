package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// graphDigest is the SHA-256 of g's vertex count and CSR arrays, each
// array prefixed by its length, all little-endian.
func graphDigest(g *Graph) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put(uint64(g.NumV))
	for _, a := range [][]uint32{g.Offsets, g.Edges, g.Weights} {
		put(uint64(len(a)))
		put(a)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests pins the generators' output bit for bit: the
// profile graphs (scale 13 and 16, seed 42), the scale-13 one again
// through the generator's 64-bit edge keys, other seeds and scales, a
// held-out paper-scale graph, and two uniform graphs. Every workload,
// result and committed figure derives from these bytes, so a faster
// generator or CSR build must reproduce them exactly.
func TestGeneratorDigests(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Graph
		want string
	}{
		{"rmat/13-8-42", func() *Graph { return GenRMAT(13, 8, LDBCLikeParams(), 42) },
			"cb6c0e77a20646309cfa14a9ace1bef66a0997f0e084ac42083aaf73727f9997"},
		// The 64-bit keys that graphs above scale 16 need accept the same
		// edges as the 32-bit keys below it.
		{"rmat/13-8-42-key64", func() *Graph {
			return genRMAT[uint64](13, 8, LDBCLikeParams(), rand.New(rand.NewSource(42)))
		}, "cb6c0e77a20646309cfa14a9ace1bef66a0997f0e084ac42083aaf73727f9997"},
		{"rmat/16-8-42", func() *Graph { return GenRMAT(16, 8, LDBCLikeParams(), 42) },
			"6aafab089532603f6ad2ea57f8bf73465921a210269310daa605a37eaf427f00"},
		{"rmat/13-8-7", func() *Graph { return GenRMAT(13, 8, LDBCLikeParams(), 7) },
			"54e79ae6c234a2d2bb0f7d8d1ef00c5b71c83dfa8330290069f7cb776535e229"},
		{"rmat/13-8-501", func() *Graph { return GenRMAT(13, 8, LDBCLikeParams(), 501) },
			"ae3dad6ba1fac56003a64761c42a436c3ccaebe09889163c6fc0cef0a3440a46"},
		{"rmat/11-8-7", func() *Graph { return GenRMAT(11, 8, LDBCLikeParams(), 7) },
			"d892e71654e376821f279f56405c0e7fa3b129c7415ec401828b60717a9bd245"},
		// Held out: a paper-scale graph on a seed no profile uses, pinned
		// with the generator that still branched on each quadrant.
		{"rmat/16-8-7", func() *Graph { return GenRMAT(16, 8, LDBCLikeParams(), 7) },
			"86239c3659f72479c8d62fe4e1791305ee03a97eb2b4139777bc6f80527d5485"},
		{"uniform/300-2400-7", func() *Graph { return GenUniform(300, 2400, 7) },
			"bf21a812916936a85b2044eb8068ab5268c8877b8cead4d3d4ad7819149589de"},
		{"uniform/4096-32768-3", func() *Graph { return GenUniform(4096, 32768, 3) },
			"67fe7929bdf95432dd66fd00e6c56f03a78bfc3780b9ce149cb195fe0224ec4d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := graphDigest(c.gen()); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// quadrantSwitch is the four-way switch the RMAT descent branched on
// before quadrant, kept as its oracle: the bits that draw r sets in u
// and v.
func quadrantSwitch(r float64, p RMATParams) (du, dv int) {
	switch {
	case r < p.A:
		// top-left: no bits set
	case r < p.A+p.B:
		dv = 1
	case r < p.A+p.B+p.C:
		du = 1
	default:
		du, dv = 1, 1
	}
	return du, dv
}

// TestQuadrantMatchesSwitch requires the branch-free step to pick the
// switch's quadrant for draws exactly at each cumulative threshold, one
// float64 step either side of it, at the ends of [0, 1), and for seeded
// random draws. In the second parameter set, 0.1+0.2 is not the nearest
// float64 to 0.3, and 0.1+0.2+0.3 summed right to left is not that sum
// left to right: the thresholds must be summed as the switch summed
// them.
func TestQuadrantMatchesSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []RMATParams{LDBCLikeParams(), {A: 0.1, B: 0.2, C: 0.3}} {
		th := p.thresholds()
		draws := []float64{0, math.Nextafter(1, 0)}
		for _, x := range th {
			draws = append(draws, math.Nextafter(x, 0), x, math.Nextafter(x, 1))
		}
		for range 10000 {
			draws = append(draws, rng.Float64())
		}
		hit := [4]int{}
		for _, r := range draws {
			du, dv := quadrant(r, &th)
			wu, wv := quadrantSwitch(r, p)
			if du != wu || dv != wv {
				t.Fatalf("%+v: r = %v (%b): quadrant gives (u, v) bits (%d, %d), the switch (%d, %d)",
					p, r, math.Float64bits(r), du, dv, wu, wv)
			}
			hit[2*du+dv]++
		}
		for q, n := range hit {
			if n == 0 {
				t.Errorf("%+v: no draw picked quadrant %d", p, q)
			}
		}
	}
}
