package main

import (
	"testing"
	"time"

	"multihopbandit/internal/core"
	"multihopbandit/internal/graph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/spec"
)

// newServeLoop builds a serve-step-shaped loop, wrapped with a tracer when
// t is non-nil.
func newServeLoop(t *testing.T, tr *tracer) *core.Loop {
	t.Helper()
	b, err := spec.Build(serveStep.instanceSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := protocol.New(protocol.Config{Ext: b.Artifacts.Ext, R: 2, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	lc := core.LoopConfig{Ext: b.Artifacts.Ext, Runtime: rt, Policy: b.Policy, Sampler: b.Sampler, UpdateEvery: 1}
	var plane *tracedPlane
	if tr != nil {
		plane = &tracedPlane{DecisionPlane: rt.NewDecider(), t: tr}
		lc.Decider, lc.Policy, lc.Sampler = plane, wrapPolicy(b.Policy, tr), &tracedSampler{Sampler: b.Sampler, t: tr}
	}
	loop, err := core.NewLoop(lc)
	if err != nil {
		t.Fatal(err)
	}
	if plane != nil {
		plane.traceDecides(loop)
	}
	return loop
}

// TestWrappedLoopMatchesPlain checks that the timing wrappers measure the
// same program: a wrapped 15×3 loop plays the same winners and observes
// the same rewards as an unwrapped one, slot for slot.
func TestWrappedLoopMatchesPlain(t *testing.T) {
	const slots = 3000
	tr := newTracer(time.Now())
	wrapped, plain := newServeLoop(t, tr), newServeLoop(t, nil)
	for s := 0; s < slots; s++ {
		tr.startRound(int64(s), s%64 == 0)
		root := tr.begin(kindTracedRound)
		xw, err := wrapped.StepSampled(nil)
		tr.end(root)
		if err != nil {
			t.Fatal(err)
		}
		xp, err := plain.StepSampled(nil)
		if err != nil {
			t.Fatal(err)
		}
		if xw != xp || !equalInts(wrapped.Winners(), plain.Winners()) {
			t.Fatalf("slot %d: wrapped loop played %v for %v, plain %v for %v",
				s, wrapped.Winners(), xw, plain.Winners(), xp)
		}
	}
	if wrapped.DecideStats() != plain.DecideStats() {
		t.Fatalf("decide stats differ: wrapped %+v, plain %+v", wrapped.DecideStats(), plain.DecideStats())
	}
	_, count := durations(tr.spans)
	for _, k := range []spanKind{kindDecide, kindUpdate, kindWriteIndices, kindSample, kindLocalMWIS} {
		if count[k] == 0 {
			t.Errorf("no %s spans recorded", k)
		}
	}
}

// TestTimedSolverMatchesSolver checks that the wrapped solver returns the
// identical set on random instances.
func TestTimedSolverMatchesSolver(t *testing.T) {
	src := rng.New(3)
	lt := &lockedTracer{t: newTracer(time.Now()), root: -1}
	lt.t.startRound(0, true)
	wrapped := &timedSolver{Solver: mwis.Hybrid{}, lt: lt}
	for trial := 0; trial < 200; trial++ {
		n := 5 + src.Intn(20)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if src.Float64() < 0.25 {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = src.Float64()
		}
		in := mwis.Instance{G: g, W: w}
		want, err := mwis.Hybrid{}.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wrapped.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got, want) {
			t.Fatalf("trial %d: wrapped solver returned %v, solver %v", trial, got, want)
		}
	}
	if wrapped.calls.Load() != 200 || len(lt.t.spans) != 200 {
		t.Fatalf("recorded %d calls and %d spans, want 200 each", wrapped.calls.Load(), len(lt.t.spans))
	}
}
