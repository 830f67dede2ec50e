package mwis

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"multihopbandit/internal/graph"
	"multihopbandit/internal/rng"
)

// oracleSearch is a frozen copy of the branch and bound as it stood before
// the clique-head walk: vertices in original-id order, a telescoping
// per-clique-maximum bound rescanning every remaining vertex, and a
// separate argmax scan for the pivot. It exists only to pin the current
// search to the old one (TestSearchMatchesOracle); nodes counts the
// branch calls.
type oracleSearch struct {
	adj       []bitset
	w         []float64
	clique    []int
	cliqueMax []float64
	best      bitset
	bestW     float64
	budget    int // remaining nodes; negative means unlimited
	nodes     int
	track     bool
	slack     float64
	u         float64
	depthBufs [][2]bitset
}

type oracleResult struct {
	set       []int
	exhausted bool
	nodes     int
	slack     float64 // traversal slack
	gap       float64 // bestW − u
}

func runOracle(in Instance, budget int, track bool) oracleResult {
	n := in.G.N()
	st := &oracleSearch{w: in.W, budget: -1, track: track}
	if budget > 0 {
		st.budget = budget
	}
	if track {
		st.slack = math.Inf(1)
	}
	st.adj = make([]bitset, n)
	for v := 0; v < n; v++ {
		st.adj[v] = newBitset(n)
		for _, u := range in.G.Neighbors(v) {
			st.adj[v].set(u)
		}
	}
	st.clique = greedyCliquePartition(in.G, nil)
	ncliques := 0
	for _, c := range st.clique {
		if c+1 > ncliques {
			ncliques = c + 1
		}
	}
	st.cliqueMax = make([]float64, ncliques)
	st.best = newBitset(n)
	st.depthBufs = make([][2]bitset, n+1)
	for i := range st.depthBufs {
		st.depthBufs[i] = [2]bitset{newBitset(n), newBitset(n)}
	}
	full := newBitset(n)
	for i := 0; i < n; i++ {
		full.set(i)
	}
	exhausted := st.branch(full, 0, newBitset(n), 0)
	var set []int
	st.best.forEach(func(i int) { set = append(set, i) })
	return oracleResult{set: set, exhausted: exhausted, nodes: st.nodes, slack: st.slack, gap: st.bestW - st.u}
}

func (st *oracleSearch) note(diff float64) {
	if diff < 0 {
		diff = -diff
	}
	if diff < st.slack {
		st.slack = diff
	}
}

func (st *oracleSearch) upperBound(remaining bitset) float64 {
	for i := range st.cliqueMax {
		st.cliqueMax[i] = 0
	}
	total := 0.0
	for wi, word := range remaining {
		for word != 0 {
			v := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			c := st.clique[v]
			if st.w[v] > st.cliqueMax[c] {
				total += st.w[v] - st.cliqueMax[c]
				st.cliqueMax[c] = st.w[v]
			}
		}
	}
	return total
}

func (st *oracleSearch) branch(remaining bitset, curW float64, cur bitset, depth int) bool {
	if st.budget == 0 {
		return false
	}
	if st.budget > 0 {
		st.budget--
	}
	st.nodes++
	if st.track && depth > 0 {
		st.note(curW - st.bestW)
		if curW > st.bestW {
			if st.bestW > st.u {
				st.u = st.bestW
			}
		} else if curW > st.u {
			st.u = curW
		}
	}
	if curW > st.bestW {
		st.bestW = curW
		copy(st.best, cur)
	}
	if remaining.empty() {
		return true
	}
	ub := st.upperBound(remaining)
	if st.track {
		st.note((curW + ub - st.bestW) / 2)
	}
	if curW+ub <= st.bestW {
		if st.track && curW+ub > st.u {
			st.u = curW + ub
		}
		return true
	}
	pivot, pw := -1, -1.0
	if st.track {
		second := -1.0
		remaining.forEach(func(v int) {
			if st.w[v] > pw {
				second = pw
				pw = st.w[v]
				pivot = v
			} else if st.w[v] > second {
				second = st.w[v]
			}
		})
		if second >= 0 {
			st.note(pw - second)
		}
	} else {
		remaining.forEach(func(v int) {
			if st.w[v] > pw {
				pw = st.w[v]
				pivot = v
			}
		})
	}
	withPivot := st.depthBufs[depth][0]
	copy(withPivot, remaining)
	withPivot.clear(pivot)
	inclRemaining := st.depthBufs[depth][1]
	withPivot.andNotInto(st.adj[pivot], inclRemaining)
	cur.set(pivot)
	ok := st.branch(inclRemaining, curW+st.w[pivot], cur, depth+1)
	cur.clear(pivot)
	if !ok {
		return false
	}
	return st.branch(withPivot, curW, cur, depth+1)
}

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// closeRel reports whether a and b agree to within 1e-12 relative to
// scale. The certificates are margins between sums of weights, so
// reordering the bound's summation moves them by rounding relative to the
// summed weights, not to the margin: scale is the instance's total finite
// weight. Equal infinities and two NaNs (Inf − Inf margins) agree.
func closeRel(a, b, scale float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(scale, math.Max(math.Abs(a), math.Abs(b)))
}

// weightKinds draws the weight regimes the differential test covers.
var weightKinds = []struct {
	name string
	// tied marks regimes where equal weights are common, so the bound's
	// new summation order may round differently and the node count is
	// only reported, not required.
	tied bool
	draw func(src *rng.Source) float64
}{
	{"continuous", false, func(src *rng.Source) float64 { return src.Float64() }},
	{"small-int", true, func(src *rng.Source) float64 { return float64(src.Intn(4)) }},
	{"zero", true, func(src *rng.Source) float64 {
		if src.Intn(3) == 0 {
			return 0
		}
		return src.Float64()
	}},
	{"inf", true, func(src *rng.Source) float64 {
		if src.Intn(8) == 0 {
			return math.Inf(1)
		}
		return src.Float64()
	}},
}

// TestSearchMatchesOracle pins the clique-head search to the frozen
// oracle: the same set and exhaustion outcome on every instance, the same
// node count on continuous weights, and the same certificates up to the
// rounding the bound's new summation order allows. Sizes straddle the
// 64-bit word boundaries the clique ranges cross.
func TestSearchMatchesOracle(t *testing.T) {
	sizes := []int{5, 9, 17, 30, 47, 63, 64, 65, 90, 129, 130}
	budgets := []int{1, 7, 100, 50000, 0} // 0 = unlimited
	src := rng.New(2024)
	var ws Workspace
	var p Prepared
	cases, exhaustedCases, tieNodeDiffs := 0, 0, 0
	for _, n := range sizes {
		for rep := 0; rep < 3; rep++ {
			g := randomGraph(n, 0.05+0.5*src.Float64(), src)
			p.Prepare(g, &ws)
			for _, kind := range weightKinds {
				w := make([]float64, n)
				for i := range w {
					w[i] = kind.draw(src)
				}
				in := Instance{G: g, W: w}
				scale := 0.0
				for _, x := range w {
					if !math.IsInf(x, 1) {
						scale += x
					}
				}
				for _, budget := range budgets {
					if budget == 0 && p.nodeBound > 1<<22 {
						// Unlimited only where exhaustion is cheap for
						// certain.
						continue
					}
					cases++
					want := runOracle(in, budget, true)
					ws.TrackSlack = true
					got, err := exactPrepared(&p, w, budget, &ws)
					got = append([]int(nil), got...)
					exhausted := err == nil
					nodes := budgetUsed(budget, ws.st.budget)
					slack, gap := ws.st.slack, ws.st.bestW-ws.st.u
					tag := fmt.Sprintf("%s n=%d budget=%d", kind.name, n, budget)
					if exhausted != want.exhausted || !equalIntSlices(got, want.set) {
						t.Fatalf("%s: set %v exhausted %v, oracle %v exhausted %v", tag, got, exhausted, want.set, want.exhausted)
					}
					if nodes != want.nodes {
						if !kind.tied {
							t.Fatalf("%s: %d nodes, oracle %d", tag, nodes, want.nodes)
						}
						tieNodeDiffs++
						t.Logf("%s: tie case visits %d nodes, oracle %d", tag, nodes, want.nodes)
					}
					// Certifying must not change the traversal.
					ws.TrackSlack = false
					plain, perr := exactPrepared(&p, w, budget, &ws)
					if (perr == nil) != exhausted || !equalIntSlices(plain, want.set) || budgetUsed(budget, ws.st.budget) != nodes {
						t.Fatalf("%s: untracked search diverged from the tracked one", tag)
					}
					if !exhausted {
						continue
					}
					exhaustedCases++
					if !closeRel(slack, want.slack, scale) {
						t.Fatalf("%s: traversal slack %v, oracle %v", tag, slack, want.slack)
					}
					if !closeRel(gap, want.gap, scale) {
						t.Fatalf("%s: uniqueness gap %v, oracle %v", tag, gap, want.gap)
					}
				}
			}
		}
	}
	t.Logf("%d cases (%d exhausted), %d tie cases with a different node count", cases, exhaustedCases, tieNodeDiffs)
}

// budgetUsed is the node count of a search given its budget argument and
// the budget it had left.
func budgetUsed(budget, left int) int {
	if budget <= 0 {
		return math.MaxInt - left
	}
	return budget - left
}

func randomGraph(n int, p float64, src *rng.Source) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if src.Float64() < p {
				_ = g.AddEdge(i, j)
			}
		}
	}
	return g
}
