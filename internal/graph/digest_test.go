package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
// profile graphs (scale 13 and 16, seed 42), other seeds and scales, and
// two uniform graphs. Every workload, result and committed figure
// derives from these bytes, so a faster generator or CSR build must
// reproduce them exactly.
func TestGeneratorDigests(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Graph
		want string
	}{
		{"rmat/13-8-42", func() *Graph { return GenRMAT(13, 8, LDBCLikeParams(), 42) },
			"cb6c0e77a20646309cfa14a9ace1bef66a0997f0e084ac42083aaf73727f9997"},
		{"rmat/16-8-42", func() *Graph { return GenRMAT(16, 8, LDBCLikeParams(), 42) },
			"6aafab089532603f6ad2ea57f8bf73465921a210269310daa605a37eaf427f00"},
		{"rmat/13-8-7", func() *Graph { return GenRMAT(13, 8, LDBCLikeParams(), 7) },
			"54e79ae6c234a2d2bb0f7d8d1ef00c5b71c83dfa8330290069f7cb776535e229"},
		{"rmat/13-8-501", func() *Graph { return GenRMAT(13, 8, LDBCLikeParams(), 501) },
			"ae3dad6ba1fac56003a64761c42a436c3ccaebe09889163c6fc0cef0a3440a46"},
		{"rmat/11-8-7", func() *Graph { return GenRMAT(11, 8, LDBCLikeParams(), 7) },
			"d892e71654e376821f279f56405c0e7fa3b129c7415ec401828b60717a9bd245"},
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
