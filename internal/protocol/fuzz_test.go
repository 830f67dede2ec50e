package protocol

import (
	"math"
	"reflect"
	"testing"

	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/graph"
	"multihopbandit/internal/mwis"
)

// fuzzBytes reads the fuzz input one byte at a time, yielding zeros once
// it runs out so every input decodes to some instance.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x)
}

// FuzzDeciderVsReference checks the Decider's exactness claim against the
// frozen from-scratch oracle on small instances decoded from the fuzz
// input:
//
//   - a communication graph of 1–8 nodes (one bit per node pair) with 1–3
//     channels, so H has at most 24 vertices;
//   - r ∈ 1..3, D ∈ 0..3 and a local solver (Hybrid, Greedy, or Hybrid
//     with a 16-node budget, whose incumbents are not optimal);
//   - 4–8 weight vectors, each weight a byte divided by 8 so exact ties
//     and zeros are common. After the first, each step redraws every
//     weight, repeats the previous vector exactly (epoch skips), drifts a
//     few weights by about 1e-12 (sensitivity skips), or sets a few
//     weights afresh; a flag bit holds the previous-strategy set instead
//     of advancing it to the last winners, so repeats skip whole epochs.
//
// Every decision must be reflect.DeepEqual to referenceDecide's.
func FuzzDeciderVsReference(f *testing.F) {
	f.Add([]byte{5, 1, 4, 0, 4, 0xff, 0x03, 8, 16, 24, 8, 16, 8, 0, 8, 16, 24, 1, 0x11, 2, 3, 1, 200, 4, 90, 0x11, 3, 2, 0, 16})
	f.Add([]byte{7, 2, 9, 1, 8, 0x55, 0xaa, 0x0f, 0x33})
	f.Add([]byte{3, 0, 2, 2, 6, 0x07, 0, 0, 0, 0x12, 0x12, 2, 4, 0, 255, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%8
		m := 1 + in.next()%3
		rd := in.next()
		r, capD := 1+rd%3, (rd/3)%4
		var solver mwis.Solver
		switch in.next() % 3 {
		case 1:
			solver = mwis.Greedy{}
		case 2:
			solver = mwis.Hybrid{Budget: 16}
		}
		steps := 4 + in.next()%5

		g := graph.New(n)
		var edgeByte, bit int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if bit%8 == 0 {
					edgeByte = in.next()
				}
				if edgeByte&(1<<(bit%8)) != 0 {
					_ = g.AddEdge(i, j)
				}
				bit++
			}
		}
		ext, err := extgraph.Build(g, m)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{Ext: ext, R: r, D: capD, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		dec := rt.NewDecider()

		k := ext.K()
		w := make([]float64, k)
		var prev []int
		for step := 0; step < steps; step++ {
			op := in.next()
			next := append([]float64(nil), w...)
			switch {
			case step == 0 || op%4 == 0: // redraw every weight
				for i := range next {
					next[i] = float64(in.next()) / 8
				}
			case op%4 == 1: // exact repeat
			case op%4 == 2: // drift of about 1e-12 on a few weights
				for c := 1 + in.next()%4; c > 0; c-- {
					i := in.next() % k
					next[i] = math.Abs(next[i] + (float64(in.next())-127.5)*1e-14)
				}
			default: // set a few weights afresh
				for c := 1 + in.next()%4; c > 0; c-- {
					i := in.next() % k
					next[i] = float64(in.next()) / 8
				}
			}
			w = next
			want, err := referenceDecide(rt, w, prev)
			if err != nil {
				t.Fatalf("step %d: reference: %v", step, err)
			}
			got, err := dec.Decide(w, prev)
			if err != nil {
				t.Fatalf("step %d: decider: %v", step, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("step %d (n=%d m=%d r=%d D=%d, w %v, prev %v): decider diverged:\n got %+v\nwant %+v",
					step, n, m, r, capD, w, prev, got, want)
			}
			if op&0x10 == 0 {
				prev = got.Winners
			}
		}
	})
}
