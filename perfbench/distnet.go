package main

import (
	"fmt"
	"time"

	"multihopbandit/internal/distnet"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/mwis"
	"multihopbandit/internal/rng"
	"multihopbandit/internal/topology"
)

// The distnet-loss workload runs the distributed decision as concurrent
// per-vertex agents (internal/distnet, on the shared rules of
// internal/dist) over an in-process transport wrapped in the fault layer
// with 20% independent frame loss, at the paper's r=2, D=4.

const (
	distNodes = 128
	distM     = 2
	distLoss  = 0.2
	// distFaultSeed keys the loss pattern; it is part of the workload's
	// definition, like the topology.
	distFaultSeed = 1
	// distDecisionsPerRep is decisions per repetition (about repSeconds on
	// 2 cores).
	distDecisionsPerRep = 60
)

// distExt builds the workload's 128-node, 2-channel extended graph.
func distExt() (*extgraph.Extended, error) {
	nw, err := topology.Random(topology.RandomConfig{N: distNodes}, rng.New(1))
	if err != nil {
		return nil, err
	}
	return extgraph.Build(nw.G, distM)
}

// distRuntime starts agents over a lossy channel transport.
func distRuntime(ext *extgraph.Extended, solver mwis.Solver, m *distnet.Metrics) (*distnet.Runtime, error) {
	tr := distnet.NewFaultTransport(distnet.NewChanTransport(), distnet.Faults{Seed: distFaultSeed, Loss: distLoss}, m)
	return distnet.New(distnet.Config{Ext: ext, R: 2, D: 4, Solver: solver, Transport: tr, Metrics: m})
}

// distPass is one sequence of decisions under drifting weights.
type distPass struct {
	lat          []float64 // per-decision latency, µs
	wall         float64
	played       [][]int
	playedWeight float64
	undetermined int
	miniRounds   int
	frames       int
	unconverged  int
	nonIndep     int
	violations   int64
	dropped      int64
	problems     []string
}

// runDecisions makes n decisions on rt, drifting the weights from the
// seed before each one after the first, and checks every Played set.
func runDecisions(rt *distnet.Runtime, ext *extgraph.Extended, m *distnet.Metrics, seed int64, n int, lt *lockedTracer) (*distPass, error) {
	drift := newWeightDrift(seed, ext.K())
	p := &distPass{lat: make([]float64, 0, n)}
	start := time.Now()
	for d := 0; d < n; d++ {
		if d > 0 {
			drift.step()
		}
		root := int32(-1)
		if lt != nil {
			lt.mu.Lock()
			lt.t.startRound(int64(d), true)
			root = lt.t.begin(kindDistDecide)
			lt.root = root
			lt.mu.Unlock()
		}
		t0 := time.Now()
		res, err := rt.Decide(drift.w)
		p.lat = append(p.lat, float64(time.Since(t0).Nanoseconds())/1e3)
		if lt != nil {
			lt.mu.Lock()
			lt.t.end(root)
			lt.mu.Unlock()
		}
		if err != nil {
			return nil, fmt.Errorf("decision %d: %w", d, err)
		}
		if !ext.H.IsIndependent(res.Played) {
			p.problems = append(p.problems, fmt.Sprintf("decision %d: played set %v not independent", d, res.Played))
		}
		p.played = append(p.played, append([]int(nil), res.Played...))
		for _, v := range res.Played {
			p.playedWeight += drift.w[v]
		}
		p.undetermined += res.Undetermined
		p.miniRounds += res.MiniRounds
		p.frames += res.Frames.Total()
		if !res.Converged {
			p.unconverged++
		}
		if !res.Independent {
			p.nonIndep++
		}
	}
	p.wall = time.Since(start).Seconds()
	snap := m.Snapshot()
	p.violations = snap.ProtocolViolations
	for _, v := range snap.CopiesDropped {
		p.dropped += v
	}
	if p.violations != 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d protocol violations", p.violations))
	}
	return p, nil
}

func runDistnetLoss(cfg runConfig) (*outcome, error) {
	ext, err := distExt()
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return runDistnetTraced(cfg, ext)
	}
	n := distDecisionsPerRep
	type built struct {
		rt *distnet.Runtime
		m  *distnet.Metrics
	}
	o := &outcome{}
	var walls, lat []float64
	var last *distPass
	setupS, err := repeatRuns(cfg.reps(), func() (built, error) {
		m := &distnet.Metrics{}
		rt, err := distRuntime(ext, nil, m)
		return built{rt, m}, err
	}, func(b built) error {
		p, err := runDecisions(b.rt, ext, b.m, cfg.Seed, n, nil)
		if err != nil {
			return err
		}
		o.Attempted += n
		o.Problems = append(o.Problems, p.problems...)
		walls = append(walls, p.wall)
		lat = append(lat, p.lat...)
		last = p
		return nil
	}, func(b built) { b.rt.Close() })
	if err != nil {
		return nil, err
	}
	workS := median(walls)
	o.setEndToEnd(workS, lat, setupS)
	note("distnet-loss: %d x %d decisions, median %.3f s: decisions_per_s %.2f, undetermined_frac %.4f, played_weight_mean %.4f, setup %.4f s",
		cfg.reps(), n, workS, float64(n)/workS, float64(last.undetermined)/float64(n*ext.K()), last.playedWeight/float64(n), setupS)
	return o, nil
}

// runDistnetTraced makes the decisions with a timed, span-recording
// solver, then again with the plain solver on a fresh runtime; the two
// passes must play identical sets.
func runDistnetTraced(cfg runConfig, ext *extgraph.Extended) (*outcome, error) {
	n := distDecisionsPerRep
	lt := &lockedTracer{t: newTracer(time.Now())}
	solver := &timedSolver{Solver: mwis.Hybrid{}, lt: lt}
	pass := func(s mwis.Solver, lt *lockedTracer) (*distPass, error) {
		m := &distnet.Metrics{}
		rt, err := distRuntime(ext, s, m)
		if err != nil {
			return nil, err
		}
		p, err := runDecisions(rt, ext, m, cfg.Seed, n, lt)
		if cerr := rt.Close(); err == nil && cerr != nil {
			err = cerr
		}
		return p, err
	}
	traced, err := pass(solver, lt)
	if err != nil {
		return nil, err
	}
	plain, err := pass(nil, nil)
	if err != nil {
		return nil, err
	}
	o := layerMetrics()
	o.Attempted = 2 * n
	o.Problems = append(append(o.Problems, traced.problems...), plain.problems...)
	same := len(traced.played) == len(plain.played)
	for d := 0; same && d < len(traced.played); d++ {
		same = equalInts(traced.played[d], plain.played[d])
	}
	o.check(same, "decisions with the wrapped solver played different sets than with the plain one")
	if len(o.Problems) > 0 {
		return o, nil
	}
	nf := float64(n)
	self, _ := selfTimes(lt.t.spans)
	dur, _ := durations(lt.t.spans)
	o.setLayer("mwis.solve_ns", ratio(float64(solver.ns.Load()), float64(solver.calls.Load())))
	o.setLayer("distnet.mini_rounds_per_decision", float64(traced.miniRounds)/nf)
	o.setLayer("distnet.frames_per_decision", float64(traced.frames)/nf)
	o.setLayer("distnet.copies_dropped_per_decision", float64(traced.dropped)/nf)
	o.setLayer("distnet.convergence_failure_frac", float64(traced.unconverged)/nf)
	o.setLayer("distnet.non_independent_frac", float64(traced.nonIndep)/nf)
	o.setLayer("distnet.undetermined_frac", float64(traced.undetermined)/(nf*float64(ext.K())))
	o.setLayer("distnet.played_weight_mean", traced.playedWeight/nf)
	// The solver is the only layer below Decide with spans; the rest of a
	// decision (message passing, phase barriers) is unattributed until
	// distnet records its own spans.
	o.setLayer("unattributed_frac", ratio(float64(self[kindDistDecide]), float64(dur[kindDistDecide])))
	o.setLayer("trace_overhead_frac", traced.wall/plain.wall-1)
	if err := writeSpans(spanPath(cfg, "distnet-loss"), lt.t.spans); err != nil {
		return nil, err
	}
	note("distnet-loss traced: %d decisions, %d solves at %.0f ns, unattributed %.3f, trace overhead %.3f",
		n, solver.calls.Load(), o.Metrics["mwis.solve_ns"].Value, o.Metrics["unattributed_frac"].Value,
		o.Metrics["trace_overhead_frac"].Value)
	return o, nil
}
