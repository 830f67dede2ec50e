package mwis

import (
	"math"
	"testing"

	"multihopbandit/internal/graph"
)

// FuzzExactVsBruteForce checks the exactness claim on small graphs decoded
// from the fuzz input: byte 0 picks n ≤ 14, the next bytes are one weight
// each (byte/8, so ties and zeros are common), and the rest are the upper
// triangle of the adjacency matrix, one bit per pair. Exact, Hybrid.Solve
// and Hybrid.SolvePrepared with the slack certificate on must each return
// an independent set of the brute-force optimum's weight.
func FuzzExactVsBruteForce(f *testing.F) {
	f.Add([]byte{5, 8, 8, 8, 8, 8, 0xff, 0x03})
	f.Add([]byte{14, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0x55, 0xaa, 0x0f, 0xf0})
	f.Add([]byte{9, 0, 0, 7, 7, 0, 3, 3, 3, 0, 0x12, 0x34, 0x56, 0x78, 0x9a})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%14
		data = data[1:]
		w := make([]float64, n)
		for i := range w {
			if i < len(data) {
				w[i] = float64(data[i]) / 8
			}
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}
		g := graph.New(n)
		bit := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if bit/8 < len(data) && data[bit/8]&(1<<(bit%8)) != 0 {
					_ = g.AddEdge(i, j)
				}
				bit++
			}
		}
		in := Instance{G: g, W: w}
		want := bruteForce(in)
		check := func(name string, set []int, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !Verify(g, set) {
				t.Fatalf("%s: %v is not independent", name, set)
			}
			if got := in.Weight(set); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: weight %v, optimum %v (set %v, w %v)", name, got, want, set, w)
			}
		}
		set, err := (Exact{}).Solve(in)
		check("Exact", set, err)
		set, err = (Hybrid{}).Solve(in)
		check("Hybrid.Solve", set, err)
		var p Prepared
		var ws Workspace
		p.Prepare(g, &ws)
		ws.TrackSlack = true
		set, err = (Hybrid{}).SolvePrepared(&p, w, &ws)
		check("Hybrid.SolvePrepared", set, err)
	})
}
