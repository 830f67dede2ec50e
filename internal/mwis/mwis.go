// Package mwis solves the maximum weighted independent set problem that
// underlies every strategy decision of the paper: given the (extended)
// conflict graph and per-vertex weights, find an independent set of maximum
// total weight.
//
// Four solvers are provided:
//
//   - Exact: branch-and-bound with a clique-partition upper bound, exact on
//     instances up to a few hundred vertices (used for ground truth and for
//     the LocalLeaders' local enumerations).
//   - Greedy: max-weight-first, a fast constant-factor heuristic.
//   - Hybrid: Exact under a budget with Greedy fallback, the practical local
//     solver suggested in §IV-C ("we can use more efficient constant
//     approximation algorithm instead").
//   - RobustPTAS: the centralized robust PTAS of Nieberg, Hurink and Kern
//     used by the paper (§IV-B), parameterized by ρ = 1+ε; it needs no
//     geometry, only hop-distances.
package mwis

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"multihopbandit/internal/graph"
)

// Instance is a weighted-graph MWIS problem.
type Instance struct {
	// G is the conflict graph.
	G *graph.Graph
	// W holds one non-negative weight per vertex of G (+Inf allowed, NaN
	// rejected).
	W []float64
}

// Validate checks structural consistency of the instance.
func (in Instance) Validate() error {
	if in.G == nil {
		return errors.New("mwis: nil graph")
	}
	if len(in.W) != in.G.N() {
		return fmt.Errorf("mwis: %d weights for %d vertices", len(in.W), in.G.N())
	}
	return checkWeights(in.W)
}

// Weight returns the total weight of the given vertex set under the
// instance's weights.
func (in Instance) Weight(set []int) float64 {
	total := 0.0
	for _, v := range set {
		total += in.W[v]
	}
	return total
}

// Solver finds a (possibly approximate) maximum weighted independent set.
// Implementations must return an independent set; ids are sorted ascending.
type Solver interface {
	// Solve returns an independent set of in.G.
	Solve(in Instance) ([]int, error)
	// Name identifies the solver in experiment output.
	Name() string
}

// Verify reports whether set is an independent set of g.
func Verify(g *graph.Graph, set []int) bool { return g.IsIndependent(set) }

// ---------------------------------------------------------------------------
// Greedy

// Greedy repeatedly selects the maximum-weight remaining vertex and removes
// its closed neighborhood. Ties break toward the lower vertex id so results
// are deterministic.
type Greedy struct{}

var _ Solver = Greedy{}

// Name implements Solver.
func (Greedy) Name() string { return "greedy" }

// Solve implements Solver.
func (Greedy) Solve(in Instance) ([]int, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.G.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := in.W[order[a]], in.W[order[b]]
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	removed := make([]bool, n)
	var out []int
	for _, v := range order {
		if removed[v] {
			continue
		}
		out = append(out, v)
		removed[v] = true
		for _, u := range in.G.Neighbors(v) {
			removed[u] = true
		}
	}
	sort.Ints(out)
	return out, nil
}

// ---------------------------------------------------------------------------
// Exact branch and bound

// ErrBudgetExceeded is returned by Exact when the search exceeds its node
// budget before proving optimality.
var ErrBudgetExceeded = errors.New("mwis: branch-and-bound budget exceeded")

// Exact is an exact branch-and-bound MWIS solver. The upper bound is a
// greedy clique partition (each clique contributes at most its heaviest
// remaining member), which is tight on the extended conflict graph H where
// every node's channel copies form a clique.
//
// Each solve relabels the vertices once so every clique occupies a
// contiguous range, heaviest member first (see Workspace.relabel). A
// search node then walks only the live clique heads — the first remaining
// position of each clique range — and that one walk yields the bound, the
// pivot and, when certifying, the pivot's runner-up.
type Exact struct {
	// MaxNodes rejects instances larger than this (0 = 4096) to guard
	// against accidentally exponential calls.
	MaxNodes int
	// Budget bounds the number of branch-and-bound nodes explored
	// (0 = unlimited). When exceeded, Solve returns ErrBudgetExceeded
	// along with the best set found so far.
	Budget int
}

var _ Solver = Exact{}

// Name implements Solver.
func (Exact) Name() string { return "exact" }

// Solve implements Solver. On ErrBudgetExceeded the returned set is still a
// valid independent set (the incumbent), so callers may treat the error as a
// quality downgrade rather than a failure.
func (e Exact) Solve(in Instance) ([]int, error) { return solveFresh(e, in) }

// solvePool holds the workspaces behind Solve, which callers such as the
// distributed agents invoke concurrently and per leader.
var solvePool = sync.Pool{New: func() any { return new(Workspace) }}

// solveFresh runs a workspace solver on a pooled workspace and copies the
// set out, so the result is the caller's alone and never nil without an
// error.
func solveFresh(s WorkspaceSolver, in Instance) ([]int, error) {
	ws := solvePool.Get().(*Workspace)
	defer solvePool.Put(ws)
	set, err := s.SolveWorkspace(in, ws)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		return nil, err
	}
	return append(make([]int, 0, len(set)), set...), err
}

// search is the branch-and-bound state of one solve. It runs on positions
// of the clique-contiguous relabeling (see Workspace.relabel): adj, w,
// best and every remaining/chosen set are indexed by position.
type search struct {
	adj    []bitset  // open neighborhoods; closed ones add the vertex itself
	w      []float64 // weight per position
	orig   []int     // original vertex id per position
	cend   []int     // end of the clique range holding each position
	first  bitset    // the first position of each clique range
	last   bitset    // the last position of each clique range
	best   bitset
	bestW  float64
	budget int // remaining nodes (math.MaxInt when unlimited)

	// Comparison-slack certificate (TrackSlack): slack is the minimum
	// |lhs−rhs| margin, pre-scaled per comparison kind, over every
	// weight-dependent comparison the search executed. Any weight vector w'
	// with Σ_v |w'_v − w_v| < slack flips none of those comparisons, so the
	// search on w' executes the identical traversal and returns the
	// identical set (see the exactness argument at Workspace.TrackSlack).
	//
	// Uniqueness-gap certificate (also TrackSlack): u accumulates an upper
	// bound on the original weight of every independent set OTHER than the
	// returned optimum. Visited sets deposit their exact weight at the
	// incumbent comparison (the improving ones deposit the superseded
	// incumbent's weight instead — the final optimum is the one visited set
	// never deposited), and pruned subtrees deposit their curW+ub bound,
	// which dominates every set inside them. bestW − u is then the gap to
	// the second-best independent set, and an L1 drift strictly below it
	// keeps the optimum unique (see exactPrepared for why that alone
	// certifies a replay when the node budget guarantees exhaustion).
	track bool
	slack float64
	u     float64

	// One pair of bitsets per recursion depth for the include/exclude
	// branches: depth d owns depthBufs[2d·words : 2(d+1)·words].
	words     int
	depthBufs bitset
}

// note records one weight-dependent comparison's margin. A zero diff is a
// tie: the slack collapses to 0 and only exactly-equal weights can certify
// a replay.
func (st *search) note(diff float64) {
	if diff < 0 {
		diff = -diff
	}
	if diff < st.slack {
		st.slack = diff
	}
}

// greedyCliquePartition assigns each vertex to a clique: scan vertices in
// decreasing-degree order; each unassigned vertex starts a clique and pulls
// in unassigned neighbors adjacent to every current member. A non-nil
// workspace supplies the order/partition/member buffers; the partition is
// identical either way (the comparator is a total order, so the sort result
// does not depend on the sorting algorithm's stability).
func greedyCliquePartition(g *graph.Graph, ws *Workspace) []int {
	n := g.N()
	var clique, order, members []int
	if ws != nil {
		clique = growInts(&ws.clique, n)
		order = growInts(&ws.order, n)
		members = ws.members[:0]
	} else {
		clique = make([]int, n)
		order = make([]int, n)
	}
	for i := range clique {
		clique[i] = -1
	}
	for i := range order {
		order[i] = i
	}
	if ws != nil {
		ws.degSort = degSorter{g: g, order: order}
		sort.Sort(&ws.degSort)
	} else {
		sort.Slice(order, func(a, b int) bool {
			da, db := g.Degree(order[a]), g.Degree(order[b])
			if da != db {
				return da > db
			}
			return order[a] < order[b]
		})
	}
	next := 0
	for _, v := range order {
		if clique[v] >= 0 {
			continue
		}
		clique[v] = next
		members = append(members[:0], v)
		for _, u := range g.Neighbors(v) {
			if clique[u] >= 0 {
				continue
			}
			ok := true
			for _, m := range members {
				if !g.HasEdge(u, m) {
					ok = false
					break
				}
			}
			if ok {
				clique[u] = next
				members = append(members, u)
			}
		}
		next++
	}
	if ws != nil {
		ws.members = members[:0]
	}
	return clique
}

// heads walks the live clique heads of remaining: the first remaining
// position of each clique range, which the relabeling makes that clique's
// heaviest remaining member. One pass over the words returns
//
//   - ub, the clique-partition bound: an independent set holds at most one
//     vertex per clique, so Σ over live cliques of the head's weight. It is
//     summed in clique-id order, a canonical order for the partition.
//   - pivot, the heaviest remaining vertex with ties toward the lower
//     original id (-1 when remaining is empty). A head is its clique's
//     heaviest member with that same tie-break, so the heaviest head is the
//     argmax over all of remaining.
//   - second, the heaviest head other than the pivot (-1 if none).
//
// The heads of a word come out of one segmented add: in ^(r|last), a
// +1 at each range's first position carries up to the range's first
// remaining member and stops there (or at the range's last position,
// which the mask holds at 0 so no carry leaves its range; a range that
// continues into the next word takes the carry with it). r & sum keeps
// exactly the heads.
func (st *search) heads(remaining bitset) (ub float64, pivot int, second float64) {
	pivot, pw, second := -1, -1.0, -1.0
	var carry uint64
	for wi, r := range remaining {
		var sum uint64
		sum, carry = bits.Add64(^(r | st.last[wi]), st.first[wi], carry)
		for h := r & sum; h != 0; h &= h - 1 {
			i := wi*64 + bits.TrailingZeros64(h)
			x := st.w[i]
			ub += x
			if x > pw || (x == pw && st.orig[i] < st.orig[pivot]) {
				second, pw, pivot = pw, x, i
			} else if x > second {
				second = x
			}
		}
	}
	return ub, pivot, second
}

// branch explores the remaining subproblem given the current chosen set and
// weight at the given recursion depth. It returns false if the budget ran
// out.
func (st *search) branch(remaining bitset, curW float64, cur bitset, depth int) bool {
	if st.budget == 0 {
		return false
	}
	st.budget--
	// Incumbent comparison: curW − bestW is a ±1-weighted sum over the
	// symmetric difference of the two sets, so an L1 weight drift below
	// |curW − bestW| cannot flip it. Depth 0 compares two empty sums (0 > 0,
	// structurally false under any weights) and is not recorded — noting its
	// zero margin would void every certificate.
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
	ub, pivot, second := st.heads(remaining)
	if pivot < 0 {
		return true // nothing remains
	}
	// Prune comparison: curW + ub − bestW moves by at most 2× the L1 drift
	// (cur and remaining are disjoint, contributing ≤ D1 together; best may
	// overlap both and contributes ≤ D1 on its own), hence the halved margin.
	// Which member heads a clique needs no recording: whichever vertex
	// attains a clique's maximum, the maximum's value moves by at most the
	// clique members' summed drift. The summation order is fixed by the
	// partition, not by the weights, so it is no comparison either.
	if st.track {
		st.note((curW + ub - st.bestW) / 2)
	}
	if curW+ub <= st.bestW {
		// Every set inside the pruned subtree weighs at most curW+ub;
		// depositing the bound keeps the uniqueness gap valid for them.
		if st.track && curW+ub > st.u {
			st.u = curW + ub
		}
		return true // pruned
	}
	// Branch on the heaviest remaining vertex (ties toward the lower
	// original id, so the pivot does not depend on the relabeling). The
	// only margin the choice depends on is max − runner-up: the pivot
	// survives any drift below it, while comparisons among non-pivot
	// vertices only shuffle walk-internal state. The runner-up is the
	// larger of the other heads and the pivot clique's next remaining
	// member. A lone remaining vertex is weight-independent and records
	// nothing; an exact tie for the maximum records a zero margin, voiding
	// the certificate.
	if st.track {
		if j := remaining.nextIn(pivot+1, st.cend[pivot]); j >= 0 && st.w[j] > second {
			second = st.w[j]
		}
		if second >= 0 {
			st.note(st.w[pivot] - second)
		}
	}
	// Include pivot: drop pivot and its neighbors from the remainder.
	k := st.words
	bufs := st.depthBufs[2*depth*k : 2*(depth+1)*k]
	withPivot, inclRemaining := bufs[:k:k], bufs[k:]
	copy(withPivot, remaining)
	withPivot.clear(pivot)
	withPivot.andNotInto(st.adj[pivot], inclRemaining)
	cur.set(pivot)
	ok := st.branch(inclRemaining, curW+st.w[pivot], cur, depth+1)
	cur.clear(pivot)
	if !ok {
		return false
	}
	// Exclude pivot.
	return st.branch(withPivot, curW, cur, depth+1)
}

// ---------------------------------------------------------------------------
// Hybrid

// Hybrid runs Exact under a budget and falls back to the incumbent (or to
// Greedy if the incumbent is worse) when the budget is exhausted. This is
// the practical local solver for LocalLeaders on dense neighborhoods.
type Hybrid struct {
	// Budget is the branch-and-bound node budget (default 50000).
	Budget int
	// MaxExactNodes skips Exact entirely above this size (default 512).
	MaxExactNodes int
}

var _ Solver = Hybrid{}

// Name implements Solver.
func (Hybrid) Name() string { return "hybrid" }

// Solve implements Solver: SolveWorkspace on a pooled workspace, with the
// set copied out.
func (h Hybrid) Solve(in Instance) ([]int, error) { return solveFresh(h, in) }
