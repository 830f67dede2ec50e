package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"multihopbandit/internal/core"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/sim"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/timing"
)

// The figsuite workload is what a reader reproducing the paper runs: the
// golden configuration `figgen -exp all -seed 1 -slots 300 -periods 40
// -reps 3` with one engine worker per CPU. Its output must hash to the
// committed golden digest. The suite's time goes to the exact solver at
// Fig. 8's 100×10 shape.

const (
	goldenFile    = "testdata/figgen-golden.sha256"
	goldenSeed    = 1
	goldenSlots   = 300
	goldenPeriods = 40
	goldenReps    = 3
	goldenSamples = 10
	// fig8N×fig8M is Fig. 8's shape, where the traced run replays the
	// slot loop, for fig8Slots slots.
	fig8N, fig8M = 100, 10
	fig8Slots    = 100
)

// readGolden returns the committed digest of the golden figure output.
func readGolden() (string, error) {
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		return "", fmt.Errorf("golden digest: %w", err)
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return "", fmt.Errorf("golden digest: %s is empty", goldenFile)
	}
	return fields[0], nil
}

// runSuite runs the golden suite and renders exactly what figgen -exp all
// prints, returning the output's SHA-256 and the suite result.
func runSuite(progress func(name string, done, total int)) (string, *sim.SuiteResult, error) {
	var b strings.Builder
	b.WriteString(sim.RenderTable2(timing.Paper()))
	b.WriteString("\n")
	res, err := sim.RunExperiments(sim.SuiteConfig{
		Seed:      goldenSeed,
		Workers:   runtime.NumCPU(),
		Fig7:      sim.Fig7Config{Slots: goldenSlots},
		Fig8:      sim.Fig8Config{Periods: goldenPeriods},
		Fig7Seeds: sim.SeedRange(goldenSeed, goldenReps),
		Progress:  progress,
	})
	if err != nil {
		return "", nil, err
	}
	b.WriteString(sim.RenderFig6(res.Fig6))
	b.WriteString("\n")
	b.WriteString(sim.RenderFig7(res.Fig7, goldenSamples))
	b.WriteString("\n")
	b.WriteString(sim.RenderFig8(res.Fig8, goldenSamples))
	b.WriteString("\n")
	b.WriteString(sim.RenderAblation("Ablation — ball parameter r (N=60, M=5, one decision)", res.AblationR))
	b.WriteString(sim.RenderAblation("Ablation — mini-round cap D", res.AblationD))
	b.WriteString(sim.RenderAblation("Ablation — local MWIS solver", res.AblationSolver))
	b.WriteString("\n")
	b.WriteString(sim.RenderShift(res.Shift, goldenSamples))
	b.WriteString("\n")
	rep := res.Fig7Replicated
	fmt.Fprintf(&b, "Fig. 7 endpoints over %d seeds (mean ± 95%% CI), kbps\n", goldenReps)
	fmt.Fprintf(&b, "%12s %22s %22s %22s\n", "policy", "practical regret", "β-regret", "avg throughput")
	for _, name := range []string{"Algorithm2", "LLR"} {
		r, bt, th := rep.FinalRegret[name], rep.FinalBetaRegret[name], rep.Throughput[name]
		fmt.Fprintf(&b, "%12s %12.1f ± %7.1f %12.1f ± %7.1f %12.1f ± %7.1f\n",
			name, r.Mean, r.CI95, bt.Mean, bt.CI95, th.Mean, th.CI95)
	}
	b.WriteString("\n")
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), res, nil
}

// fig8Spec is a scenario at Fig. 8's shape and decision parameters.
func fig8Spec(noiseSeed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Seed:      goldenSeed,
		NoiseSeed: noiseSeed,
		Topology:  spec.TopologySpec{Kind: spec.TopologyRandom, N: fig8N},
		Channel:   spec.ChannelSpec{Kind: spec.ChannelGaussian, M: fig8M},
		Policy:    spec.PolicySpec{Kind: spec.PolicyZhouLi},
		Decision:  spec.DecisionSpec{R: 2, D: 4, UpdateEvery: 1},
	}
}

// fig8Setup builds the artifacts and protocol runtime at Fig. 8's shape:
// the construction a reader pays before the first slot of the costliest
// figure. It is the figsuite workload's set-up figure; the suite itself
// pays it again inside its own time.
func fig8Setup(noiseSeed int64) (*spec.Built, *protocol.Runtime, error) {
	b, err := spec.Build(fig8Spec(noiseSeed))
	if err != nil {
		return nil, nil, err
	}
	rt, err := protocol.New(protocol.Config{Ext: b.Artifacts.Ext, R: b.Spec.Decision.R, D: b.Spec.Decision.D})
	if err != nil {
		return nil, nil, err
	}
	return b, rt, nil
}

func runFigsuite(cfg runConfig) (*outcome, error) {
	golden, err := readGolden()
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return runFigsuiteTraced(cfg, golden)
	}
	// One repetition is one suite run (about repSeconds on 2 cores).
	reps := cfg.reps()
	setupS, err := repeatRuns(reps, func() (*protocol.Runtime, error) {
		_, rt, err := fig8Setup(instanceNoiseSeeds(cfg.Seed, 1)[0])
		return rt, err
	}, func(*protocol.Runtime) error { return nil }, func(*protocol.Runtime) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var walls []float64
	for i := 0; i < reps; i++ {
		o.Attempted++
		start := time.Now()
		digest, _, err := runSuite(nil)
		d := time.Since(start).Seconds()
		if err != nil {
			o.check(false, "suite run %d: %v", i, err)
			continue
		}
		o.check(digest == golden, "suite run %d: output digest %s, golden %s", i, digest, golden)
		walls = append(walls, d)
	}
	rounds := make([]float64, len(walls))
	for i, d := range walls {
		rounds[i] = d * 1e6
	}
	workS := median(walls)
	o.setEndToEnd(workS, rounds, setupS)
	note("figsuite: %d suite runs, figsuite_s median %.3f, setup %.4f s", reps, workS, setupS)
	return o, nil
}

// runFigsuiteTraced runs the suite once with per-experiment timings, then
// replays the slot loop at Fig. 8's shape with timing wrappers and plain.
func runFigsuiteTraced(cfg runConfig, golden string) (*outcome, error) {
	o := layerMetrics()
	o.Attempted = 1
	last := time.Now()
	stepS := map[string]float64{}
	digest, res, err := runSuite(func(name string, _, _ int) {
		now := time.Now()
		stepS[name] = now.Sub(last).Seconds()
		last = now
	})
	if err != nil {
		return nil, err
	}
	o.check(digest == golden, "suite output digest %s, golden %s", digest, golden)
	for _, name := range []string{"fig6", "fig7", "fig8", "ablations", "shift", "fig7rep"} {
		o.setLayer("sim."+name+"_s", stepS[name])
	}
	o.setLayer("engine.cache_hits", float64(res.Cache.Hits))
	o.setLayer("engine.cache_misses", float64(res.Cache.Misses))

	noiseSeed := instanceNoiseSeeds(cfg.Seed, 1)[0]
	base := time.Now()
	tr := newTracer(base)
	traced, err := replayFig8(noiseSeed, tr)
	if err != nil {
		return nil, err
	}
	plain, err := replayFig8(noiseSeed, nil)
	if err != nil {
		return nil, err
	}
	o.Attempted += 2 * fig8Slots
	o.Problems = append(o.Problems, traced.problems...)
	o.Problems = append(o.Problems, plain.problems...)
	o.check(traced.observed == plain.observed && equalInts(traced.winners, plain.winners),
		"wrapped fig8 replay diverged from the plain one")
	if len(o.Problems) > 0 {
		return o, nil
	}
	self, count := selfTimes(tr.spans)
	dur, _ := durations(tr.spans)
	perCall := func(k spanKind) float64 { return ratio(float64(self[k]), float64(count[k])) }
	o.setLayer("core.self_ns_per_slot", ratio(float64(self[kindLoopStep]), float64(count[kindLoopStep])))
	o.setLayer("policy.write_indices_ns", perCall(kindWriteIndices))
	o.setLayer("policy.update_ns", perCall(kindUpdate))
	o.setLayer("channel.sample_ns", perCall(kindSample))
	setDecideMetrics(o, dur, count, traced.stats, []*tracedPlane{traced.plane}, fig8Slots)
	o.setLayer("protocol.allocs_per_decide", ratio(float64(plain.mallocs), float64(plain.stats.Decisions())))
	o.setLayer("unattributed_frac", ratio(float64(self[kindTracedRound]+self[kindDecide]), float64(dur[kindTracedRound])))
	o.setLayer("trace_overhead_frac", traced.wall/plain.wall-1)
	if err := writeSpans(spanPath(cfg, "figsuite"), tr.spans); err != nil {
		return nil, err
	}
	note("figsuite traced: fig8 %.3f s of the suite; replay %.0f ns/decide, local MWIS %.0f ns/decide, trace overhead %.3f",
		stepS["fig8"], o.Metrics["protocol.decide_ns"].Value, o.Metrics["protocol.local_mwis_ns"].Value,
		o.Metrics["trace_overhead_frac"].Value)
	return o, nil
}

// fig8Replay is one replay of the slot loop at Fig. 8's shape.
type fig8Replay struct {
	wall     float64
	observed float64
	winners  []int
	stats    protocol.DecideStats
	plane    *tracedPlane
	mallocs  uint64
	problems []string
}

// replayFig8 runs fig8Slots slots of one Fig. 8-shaped loop, wrapped and
// traced when tr is non-nil, plain otherwise.
func replayFig8(noiseSeed int64, tr *tracer) (*fig8Replay, error) {
	b, rt, err := fig8Setup(noiseSeed)
	if err != nil {
		return nil, err
	}
	lc := core.LoopConfig{Ext: b.Artifacts.Ext, Runtime: rt, Policy: b.Policy, Sampler: b.Sampler, UpdateEvery: 1}
	rep := &fig8Replay{}
	if tr != nil {
		rep.plane = &tracedPlane{DecisionPlane: rt.NewDecider(), t: tr}
		lc.Decider, lc.Policy, lc.Sampler = rep.plane, wrapPolicy(b.Policy, tr), &tracedSampler{Sampler: b.Sampler, t: tr}
	}
	loop, err := core.NewLoop(lc)
	if err != nil {
		return nil, err
	}
	if rep.plane != nil {
		rep.plane.traceDecides(loop)
	}
	h := b.Artifacts.Ext.H
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for s := 0; s < fig8Slots; s++ {
		if tr != nil {
			tr.startRound(int64(s), true)
		}
		root := tr.begin(kindTracedRound)
		sp := tr.begin(kindLoopStep)
		x, err := loop.StepSampled(nil)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		rep.observed += x
		if !h.IsIndependent(loop.Winners()) {
			rep.problems = append(rep.problems, fmt.Sprintf("fig8 replay: winners not independent at slot %d", s))
		}
	}
	rep.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if tr == nil {
		rep.mallocs = after.Mallocs - before.Mallocs
	}
	rep.winners = append([]int(nil), loop.Winners()...)
	rep.stats = loop.DecideStats()
	return rep, nil
}
