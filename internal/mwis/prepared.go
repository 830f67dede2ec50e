package mwis

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"multihopbandit/internal/graph"
)

// Prepared is the weight-independent preprocessing of one MWIS graph: its
// adjacency as bitsets and the greedy clique partition the exact solver's
// upper bound uses, laid out clique by clique. All of it depends only on
// the graph structure, so a caller that repeatedly solves the same graph
// under drifting weights (the protocol decider: a LocalLeader's candidate
// ball usually keeps its shape between decisions while the index weights
// move) prepares once and pays only the relabel and the branch-and-bound
// per solve.
//
// A Prepared owns its storage — it stays valid even when the graph it was
// prepared from lives in reused arena memory. Prepare reuses the previous
// storage where capacities allow.
type Prepared struct {
	n     int
	words int
	adj   []bitset // over original ids
	arena bitset

	// The clique partition in clique-contiguous form: clique c's members
	// are byClique[cstart[c]:cstart[c+1]], ascending by original id;
	// cend[i] is the end of the clique range holding position i, and
	// first/last mark each range's first and last position. A solve only
	// reorders members inside their clique's range (by weight), so all of
	// these hold for every weight vector.
	cstart      []int
	byClique    []int
	cend        []int
	first, last bitset
	ints        []int // backs cstart, byClique and cend

	// nodeBound bounds the branch-and-bound tree size with pruning
	// disabled: the unpruned search reaches every independent set as
	// exactly one leaf and every internal node has two children, so
	// #nodes = 2·#IS − 1, and #IS ≤ Π_cliques(|c|+1) since an independent
	// set holds at most one vertex per clique. A budget ≥ nodeBound
	// therefore guarantees the search exhausts under ANY weight vector —
	// the precondition for the uniqueness-gap slack certificate (see
	// exactPrepared). Saturates at math.MaxInt on overflow.
	nodeBound int
}

// N returns the prepared graph's vertex count.
func (p *Prepared) N() int { return p.n }

// Prepare fills p from g, replacing any previous preparation. A non-nil
// workspace supplies the clique-partition scratch.
func (p *Prepared) Prepare(g *graph.Graph, ws *Workspace) {
	n := g.N()
	p.n = n
	p.words = (n + 63) / 64
	clique := greedyCliquePartition(g, ws)
	ncliques := 0
	for _, c := range clique {
		if c+1 > ncliques {
			ncliques = c + 1
		}
	}
	// One bitset arena (adjacency rows, then first, then last) and one
	// int buffer (cstart, byClique, cend), so a fresh Prepared costs a
	// few allocations, not one per table.
	words := p.words
	p.arena = growBitset(&p.arena, (n+2)*words)
	p.adj = growInts2(&p.adj, n)
	for v := 0; v < n; v++ {
		row := p.arena[v*words : (v+1)*words : (v+1)*words]
		for _, u := range g.Neighbors(v) {
			row.set(u)
		}
		p.adj[v] = row
	}
	p.first = p.arena[n*words : (n+1)*words : (n+1)*words]
	p.last = p.arena[(n+1)*words:]
	ints := growInts(&p.ints, ncliques+1+2*n)
	p.cstart = ints[: ncliques+1 : ncliques+1]
	p.byClique = ints[ncliques+1 : ncliques+1+n : ncliques+1+n]
	p.cend = ints[ncliques+1+n:]
	// Counting sort by clique id; scanning vertices in id order keeps each
	// clique's members ascending.
	for i := range p.cstart {
		p.cstart[i] = 0
	}
	for _, c := range clique {
		p.cstart[c+1]++
	}
	for c := 0; c < ncliques; c++ {
		p.cstart[c+1] += p.cstart[c]
	}
	var fill []int
	if ws != nil {
		fill = growInts(&ws.order, ncliques)
	} else {
		fill = make([]int, ncliques)
	}
	copy(fill, p.cstart)
	for v, c := range clique {
		p.byClique[fill[c]] = v
		p.cend[fill[c]] = p.cstart[c+1]
		fill[c]++
	}
	for c := 0; c < ncliques; c++ {
		p.first.set(p.cstart[c])
		p.last.set(p.cstart[c+1] - 1)
	}
	prod, ok := 1, true
	for c := 0; c < ncliques; c++ {
		s := p.cstart[c+1] - p.cstart[c]
		if prod > (math.MaxInt-1)/2/(s+1) {
			ok = false
			break
		}
		prod *= s + 1
	}
	if ok {
		p.nodeBound = 2*prod - 1
	} else {
		p.nodeBound = math.MaxInt
	}
}

// SolvePrepared is Hybrid's workspace path over a prepared graph: a
// budgeted exact search first (its clique-partition bound and adjacency
// come straight from p), falling back to the greedy heuristic only when the
// budget runs out — exactly Solve's output on the same graph and weights
// (see TestSolvePreparedMatchesSolve). The returned slice aliases ws.
func (h Hybrid) SolvePrepared(p *Prepared, w []float64, ws *Workspace) ([]int, error) {
	if len(w) != p.n {
		return nil, fmt.Errorf("mwis: %d weights for %d vertices", len(w), p.n)
	}
	if err := checkWeights(w); err != nil {
		return nil, err
	}
	budget := h.Budget
	if budget == 0 {
		budget = 50000
	}
	maxExact := h.MaxExactNodes
	if maxExact == 0 {
		maxExact = 512
	}
	// Pessimistic default: every path that does not complete the exact
	// search leaves the slack certificate void (see Workspace.TrackSlack).
	ws.Slack = 0
	if p.n > maxExact {
		return greedyPrepared(p, w, ws), nil
	}
	if p.n == 0 {
		ws.Slack = math.Inf(1)
		return ws.eout[:0], nil
	}
	exactSet, err := exactPrepared(p, w, budget, ws)
	if err == nil {
		return exactSet, nil
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		return nil, err
	}
	greedySet := greedyPrepared(p, w, ws)
	exactW, greedyW := 0.0, 0.0
	for _, v := range exactSet {
		exactW += w[v]
	}
	for _, v := range greedySet {
		greedyW += w[v]
	}
	if exactW >= greedyW {
		return exactSet, nil
	}
	return greedySet, nil
}

// exactPrepared runs the budgeted branch and bound (budget ≤ 0 means
// unlimited) over the prepared graph: every exact solve in the package,
// Exact's and Hybrid's alike, goes through it. On ErrBudgetExceeded the
// returned set is the incumbent.
func exactPrepared(p *Prepared, w []float64, budget int, ws *Workspace) ([]int, error) {
	n := p.n
	st := ws.relabel(p, w)
	if budget <= 0 {
		st.budget = math.MaxInt
	} else {
		st.budget = budget
	}
	if ws.TrackSlack {
		st.track = true
		st.slack = math.Inf(1)
	}
	words := p.words
	full := growBitset(&ws.full, words)
	cur := growBitset(&ws.cur, words)
	for i := 0; i < n; i++ {
		full.set(i)
	}
	exhausted := st.branch(full, 0, cur, 0)
	// Back to original ids, ascending.
	out := ws.eout[:0]
	for v := 0; v < n; v++ {
		if st.best.has(ws.inv[v]) {
			out = append(out, v)
		}
	}
	ws.eout = out
	if !exhausted {
		return out, ErrBudgetExceeded
	}
	if st.track {
		// Two independent replay certificates; the weaker conditions of
		// either suffice, so the published slack is their maximum.
		//
		// Traversal slack (st.slack): drift below it flips no comparison,
		// so the search replays the identical traversal — valid under any
		// budget that let this search exhaust.
		//
		// Uniqueness gap (st.bestW − st.u): drift D1 strictly below the
		// gap keeps the returned set the unique optimum, because for any
		// other independent set T, w'(S0) − w'(T) ≥ (bestW − u) − D1 > 0
		// (S0\T and T\S0 are disjoint, so their drifts jointly spend the
		// single D1 allowance — no halving). A unique strict optimum is
		// returned by ANY exhaustive run regardless of traversal order, so
		// this certificate additionally needs exhaustion to be guaranteed
		// a priori under the drifted weights: nodeBound ≤ budget (or an
		// unlimited budget). Exact ties deposit bestW into u, collapsing
		// the gap to zero, so bit-identity with the from-scratch solve is
		// preserved.
		ws.Slack = st.slack
		if budget <= 0 || p.nodeBound <= budget {
			if gap := st.bestW - st.u; gap > ws.Slack {
				ws.Slack = gap
			}
		}
	}
	return out, nil
}

// relabel readies ws.st for one search over p under weights w. It puts
// the vertices in clique-contiguous order — clique id ascending, then
// weight descending, then original id ascending — so the first remaining
// position of each clique range is that clique's heaviest remaining
// member, and remaps the adjacency rows into that order (O(edges)). The
// search then runs entirely on positions; orig maps a position back to its
// vertex for the pivot tie-break and the result.
func (ws *Workspace) relabel(p *Prepared, w []float64) *search {
	n, words := p.n, p.words
	// Stable insertion sort by weight, descending, within each clique
	// range: byClique lists every clique by ascending id, so ties keep
	// the id order.
	perm := growInts(&ws.perm, n)
	copy(perm, p.byClique)
	for i := 1; i < n; i++ {
		v, j := perm[i], i
		for ; !p.first.has(j) && w[v] > w[perm[j-1]]; j-- {
			perm[j] = perm[j-1]
		}
		perm[j] = v
	}
	inv := growInts(&ws.inv, n)
	wpos := growFloats(&ws.wpos, n)
	for i, v := range perm {
		inv[v] = i
		wpos[i] = w[v]
	}
	// The relabeled adjacency rows and the incumbent come out of one
	// zeroed arena.
	arena := growBitset(&ws.arena, words*(n+1))
	adj := growInts2(&ws.adj, n)
	for i, v := range perm {
		row := arena[i*words : (i+1)*words : (i+1)*words]
		for wi, word := range p.adj[v] {
			for word != 0 {
				row.set(inv[wi*64+bits.TrailingZeros64(word)])
				word &= word - 1
			}
		}
		adj[i] = row
	}
	// Two bitsets per recursion depth, written in full before every read,
	// so they need no zeroing.
	if need := 2 * words * (n + 1); cap(ws.depthBufs) < need {
		ws.depthBufs = make(bitset, need)
	}
	st := &ws.st
	*st = search{
		adj: adj, w: wpos, orig: perm, cend: p.cend, first: p.first, last: p.last,
		best: arena[n*words:], words: words, depthBufs: ws.depthBufs[:2*words*(n+1)],
	}
	return st
}

// checkWeights rejects negative and NaN weights; +Inf is a valid weight.
func checkWeights(w []float64) error {
	for v, x := range w {
		if !(x >= 0) {
			return fmt.Errorf("mwis: invalid weight %v at vertex %d (want a non-negative number)", x, v)
		}
	}
	return nil
}

// greedyPrepared is Greedy.Solve over the prepared adjacency: identical
// selection (max weight first, ties toward the lower id), with closed
// neighborhoods removed via the adjacency bitsets.
func greedyPrepared(p *Prepared, w []float64, ws *Workspace) []int {
	n := p.n
	order := growInts(&ws.order, n)
	for i := range order {
		order[i] = i
	}
	ws.wsort = weightSorter{order: order, w: w}
	sort.Sort(&ws.wsort)
	removed := growBools(&ws.removed, n)
	out := ws.gout[:0]
	for _, v := range order {
		if removed[v] {
			continue
		}
		out = append(out, v)
		removed[v] = true
		for wi, word := range p.adj[v] {
			for word != 0 {
				removed[wi*64+bits.TrailingZeros64(word)] = true
				word &= word - 1
			}
		}
	}
	sort.Ints(out)
	ws.gout = out
	return out
}
