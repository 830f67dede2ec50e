package main

import (
	"sync/atomic"
	"time"

	"multihopbandit/internal/changeset"
	"multihopbandit/internal/channel"
	"multihopbandit/internal/core"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/policy"
	"multihopbandit/internal/protocol"
)

// The wrappers below sit at core.Loop's seams and around the distnet
// solver. Each forwards every call unchanged to the wrapped value and
// records a span around the calls that do work, so a wrapped loop runs the
// same program as an unwrapped one (wrap_test.go checks that its winners
// and rewards are identical).

// tracedPolicy wraps a policy that has the IndexWriter fast path, as
// every policy the benchmark hosts does; the loop then takes the same
// path through the wrapper.
type tracedPolicy struct {
	policy.Policy
	wr policy.IndexWriter
	t  *tracer
}

func wrapPolicy(p policy.Policy, t *tracer) *tracedPolicy {
	return &tracedPolicy{Policy: p, wr: p.(policy.IndexWriter), t: t}
}

func (p *tracedPolicy) Update(played []int, rewards []float64) error {
	s := p.t.begin(kindUpdate)
	err := p.Policy.Update(played, rewards)
	p.t.end(s)
	return err
}

func (p *tracedPolicy) WriteIndices(dst []float64, ch *changeset.Set) bool {
	s := p.t.begin(kindWriteIndices)
	changed := p.wr.WriteIndices(dst, ch)
	p.t.end(s)
	return changed
}

// tracedSampler wraps a stationary channel.Sampler; the benchmark's
// channels are gaussian. (A channel.Dynamic would lose its Tick behind
// the wrapper, and the ladder's bit-identity check would fail.)
type tracedSampler struct {
	channel.Sampler
	t *tracer
}

func (s *tracedSampler) Sample(k int) float64 {
	sp := s.t.begin(kindSample)
	x := s.Sampler.Sample(k)
	s.t.end(sp)
	return x
}

// tracedPlane wraps a core.DecisionPlane. The decide phases come from the
// plane's own tracer (DecideTrace), installed through the loop's
// SetDecideObserver by traceDecides.
type tracedPlane struct {
	core.DecisionPlane
	t *tracer
	// decideStart is the start of the open decide span, where the phase
	// spans are laid out.
	decideStart int64
	// resolves and localMWISNS accumulate, over sampled rounds, the leader
	// re-solves and local-MWIS time the traces report.
	resolves, localMWISNS int64
}

func (p *tracedPlane) DecideEpoch(weights []float64, prevPlayed []int, weightsUnchanged bool, ch *changeset.Set) (*protocol.Result, error) {
	s := p.t.begin(kindDecide)
	if s >= 0 {
		p.decideStart = p.t.spans[s].Start
	}
	res, err := p.DecisionPlane.DecideEpoch(weights, prevPlayed, weightsUnchanged, ch)
	p.t.end(s)
	return res, err
}

// traceDecides attaches the phase observer to loop, whose decision plane
// is p.
func (p *tracedPlane) traceDecides(loop *core.Loop) {
	loop.SetDecideObserver(func(_ int, tr *protocol.DecideTrace) {
		if !p.t.on {
			return
		}
		at := p.decideStart
		at = p.t.child(kindBroadcast, at, tr.BroadcastNS)
		at = p.t.child(kindElection, at, tr.ElectionNS)
		at = p.t.child(kindLocalMWIS, at, tr.LocalMWISNS)
		p.t.child(kindFinalize, at, tr.FinalizeNS)
		p.resolves += tr.MemoStructHits + tr.MemoMisses
		p.localMWISNS += tr.LocalMWISNS
	})
}

// timedSolver wraps an mwis.Solver for concurrent callers: every call is
// counted and timed with atomics, and recorded as a span when the shared
// tracer's current decision is sampled.
type timedSolver struct {
	mwis.Solver
	lt    *lockedTracer
	calls atomic.Int64
	ns    atomic.Int64
}

func (s *timedSolver) Solve(in mwis.Instance) ([]int, error) {
	t0 := time.Now()
	out, err := s.Solver.Solve(in)
	d := time.Since(t0)
	s.calls.Add(1)
	s.ns.Add(int64(d))
	if s.lt != nil {
		start := int64(t0.Sub(s.lt.t.base))
		s.lt.add(kindSolve, start, start+int64(d))
	}
	return out, err
}
