package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"multihopbandit/internal/core"
	"multihopbandit/internal/protocol"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/wal"
)

// The traced serving run measures the layers with a ladder: the same
// seeded request sequence runs at three levels, and a round's cost at one
// level minus its cost one level down is the self time of the layer in
// between.
//
//	wire      wire.Client against the registry on loopback
//	session   serve.Session on a registry
//	loop      core.Loop built with spec.Build, protocol.New and
//	          core.NewLoop, with pass-through timing wrappers at its seams
//
// For the write path a persisted session level runs beside the ladder;
// its rounds minus the unpersisted session's are the persistence cost.
//
// Each level's trajectories must be bit-identical to the wire level's,
// which the run checks. A further pass drives plain loops, unwrapped and
// recording only their round spans, for the tracing overhead and the
// decide allocations. The passes run interleaved round by round (drive).

func newTracers(base time.Time) []*tracer {
	ts := make([]*tracer, serveClients)
	for c := range ts {
		ts[c] = newTracer(base)
	}
	return ts
}

func runServeTraced(w serveWorkload, cfg runConfig, in *serveInputs) (*outcome, error) {
	rounds := w.roundsPerRep
	if rounds < sampleEvery {
		rounds = sampleEvery
	}
	base := time.Now()
	o := layerMetrics()

	wireStack, err := startStack(in.specs, "", true)
	if err != nil {
		return nil, err
	}
	defer wireStack.stop()
	wireTr := newTracers(base)
	wirePass := w.wirePass(cfg, in, wireStack, wireTr)
	passes := []*pass{wirePass}
	var persistTr []*tracer
	if w.persist {
		persistTr = newTracers(base)
		p, st, err := w.sessionPass(cfg, in, persistTr, true)
		if err != nil {
			return nil, err
		}
		defer st.stop()
		passes = append(passes, p)
	}
	sessTr := newTracers(base)
	sessPass, st, err := w.sessionPass(cfg, in, sessTr, false)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	loopTr := newTracers(base)
	traced, err := w.loopPass(cfg, in, loopTr, true)
	if err != nil {
		return nil, err
	}
	plainTr := newTracers(base)
	plain, err := w.loopPass(cfg, in, plainTr, false)
	if err != nil {
		return nil, err
	}
	passes = append(passes, sessPass, traced.pass, plain.pass)
	err = drive(rounds, passes...)
	for _, p := range passes {
		o.Attempted += len(p.lat)
		if p == wirePass {
			o.Problems = append(o.Problems, p.chk.problems...)
		} else {
			o.Problems = append(o.Problems, p.chk.sameAs(wirePass.chk, p.root.String())...)
		}
	}
	if err != nil && len(o.Problems) == 0 {
		return nil, err
	}
	if len(o.Problems) > 0 {
		return o, nil
	}

	// Nest every level's round trees inside the level above, innermost
	// first, so each round is one tree rooted at its wire span. The plain
	// loop pass records only its round spans; the traced loop tree hangs
	// below them, so the layers above are charged the untraced loop time
	// and the plain round's (negative) self time is the tracing overhead.
	// The persisted rounds stay roots of their own.
	tree := graft(mergeTracers(plainTr), mergeTracers(loopTr))
	tree = graft(mergeTracers(sessTr), tree)
	tree = graft(mergeTracers(wireTr), tree)
	self, count := selfTimes(tree)
	dur, _ := durations(tree)
	persistUS := 0.0
	if persistTr != nil {
		persisted := mergeTracers(persistTr)
		pdur, pcount := durations(persisted)
		persistUS = (ratio(float64(pdur[kindPersistRound]), float64(pcount[kindPersistRound])) -
			ratio(float64(dur[kindSessionRound]), float64(count[kindSessionRound]))) / 1e3
		tree = concatSpans(tree, persisted)
	}
	perCall := func(k spanKind) float64 { return ratio(float64(self[k]), float64(count[k])) }
	sampledSlots := float64(count[kindTracedRound]) * float64(w.slotsPerRound)
	slots := float64(rounds * serveInstances * w.slotsPerRound)

	o.setLayer("wire.self_us", perCall(kindWireRound)/1e3)
	o.setLayer("wire.bytes_per_slot", wireBytes(wireStack.reg)/slots)
	o.setLayer("serve.self_us", perCall(kindSessionRound)/1e3)
	o.setLayer("serve.persist_us", persistUS)
	o.setLayer("serve.round_p99_us", percentile(wirePass.lat, 0.99))
	o.setLayer("core.self_ns_per_slot", ratio(float64(self[kindLoopStep]), sampledSlots))
	o.setLayer("policy.write_indices_ns", perCall(kindWriteIndices))
	o.setLayer("policy.update_ns", perCall(kindUpdate))
	o.setLayer("channel.sample_ns", perCall(kindSample))
	setDecideMetrics(o, dur, count, traced.stats(), traced.planes, slots)
	o.setLayer("protocol.allocs_per_decide", ratio(float64(plain.mallocs), float64(plain.stats().Decisions())))
	// The named layers account for every self time except the harness's
	// own loop around the steps and the decide time outside the four
	// phase timers.
	o.setLayer("unattributed_frac", ratio(float64(self[kindTracedRound]+self[kindDecide]), float64(dur[kindWireRound])))
	o.setLayer("trace_overhead_frac", traced.wall/plain.wall-1)

	if w.observe {
		appendNS, bytesPer, err := replayWAL(cfg, traced.walRecords())
		if err != nil {
			return nil, err
		}
		o.setLayer("wal.append_ns", appendNS)
		o.setLayer("wal.bytes_per_record", bytesPer)
	}
	if err := writeSpans(spanPath(cfg, w.name), tree); err != nil {
		return nil, err
	}
	note("%s traced: %d sampled rounds, %d spans; wire self %.1f us, serve self %.1f us, persist %.1f us, core self %.0f ns/slot, unattributed %.3f, trace overhead %.3f",
		w.name, count[kindWireRound], len(tree), perCall(kindWireRound)/1e3, perCall(kindSessionRound)/1e3,
		persistUS, ratio(float64(self[kindLoopStep]), sampledSlots),
		o.Metrics["unattributed_frac"].Value, o.Metrics["trace_overhead_frac"].Value)
	return o, nil
}

// setDecideMetrics fills the protocol and mwis rows from a loop-level pass:
// phase times per decide from the span tree, skip and re-solve ratios from
// the decision planes' cumulative stats.
func setDecideMetrics(o *outcome, dur, count [numKinds]int64, st protocol.DecideStats, planes []*tracedPlane, slots float64) {
	decides := float64(count[kindDecide])
	o.setLayer("protocol.decide_ns", ratio(float64(dur[kindDecide]), decides))
	o.setLayer("protocol.broadcast_ns", ratio(float64(dur[kindBroadcast]), decides))
	o.setLayer("protocol.election_ns", ratio(float64(dur[kindElection]), decides))
	o.setLayer("protocol.local_mwis_ns", ratio(float64(dur[kindLocalMWIS]), decides))
	o.setLayer("protocol.finalize_ns", ratio(float64(dur[kindFinalize]), decides))
	o.setLayer("protocol.decides_per_slot", ratio(float64(st.Decisions()), slots))
	o.setLayer("protocol.epoch_skip_frac", ratio(float64(st.EpochSkips), float64(st.Decisions())))
	lookups := float64(st.LeaderSkips + st.SensitivitySkips + st.MemoStructHits + st.MemoMisses)
	o.setLayer("protocol.leader_skip_frac", ratio(float64(st.LeaderSkips), lookups))
	o.setLayer("protocol.sensitivity_skip_frac", ratio(float64(st.SensitivitySkips), lookups))
	o.setLayer("protocol.resolves_per_decide", ratio(float64(st.LeaderResolves()), float64(st.FullDecides)))
	var resolves, mwisNS int64
	for _, p := range planes {
		resolves += p.resolves
		mwisNS += p.localMWISNS
	}
	o.setLayer("mwis.ns_per_resolve", ratio(float64(mwisNS), float64(resolves)))
}

// sessionPass is the request sequence through serve.Session on a fresh
// registry, persisted or not. The caller stops the returned stack.
func (w serveWorkload) sessionPass(cfg runConfig, in *serveInputs, tracers []*tracer, persisted bool) (*pass, *serveStack, error) {
	dir := ""
	root := kindSessionRound
	if persisted {
		dir = dataDir(cfg)
		root = kindPersistRound
	}
	st, err := startStack(in.specs, dir, false)
	if err != nil {
		return nil, nil, err
	}
	insts := make([]*serve.Instance, serveInstances)
	for i := range insts {
		var ok bool
		if insts[i], ok = st.reg.Get(instanceID(i)); !ok {
			st.stop()
			return nil, nil, fmt.Errorf("instance %s missing", instanceID(i))
		}
	}
	chk := newRoundChecker(in)
	models := w.rewardModels(cfg.Seed, in)
	sessions := make([]serve.Session, serveClients)
	batches := make([][]serve.ObservationBatch, serveClients)
	for c := range batches {
		batches[c] = make([]serve.ObservationBatch, w.slotsPerRound)
	}
	do := func(c, i, r int) error {
		s := &sessions[c]
		p := &chk.prints[i]
		if !w.observe {
			res, err := s.Step(insts[i], w.slotsPerRound)
			if err != nil {
				return chk.fail("%s: session step: %v", instanceID(i), err)
			}
			p.slot += w.slotsPerRound
			p.observed += res.Observed
			return chk.assignment(i, res.Slot, res.Assignment.Winners)
		}
		as, err := s.Assignment(insts[i])
		if err != nil {
			return chk.fail("%s: session assignment: %v", instanceID(i), err)
		}
		if err := chk.assignment(i, as.Slot, as.Winners); err != nil {
			return err
		}
		fillBatches(batches[c], as.Winners, models[i], p)
		res, err := s.Observe(insts[i], batches[c])
		if err != nil {
			return chk.fail("%s: session observe: %v", instanceID(i), err)
		}
		p.slot += len(batches[c])
		return chk.expectSlot(i, res.Slot)
	}
	return &pass{do: do, root: root, tracers: tracers, chk: chk}, st, nil
}

// loopPass is the request sequence on core.Loops driven directly.
type loopPass struct {
	*pass
	loops  []*core.Loop
	planes []*tracedPlane
	// records is each client's observe stream of the sampled rounds, for
	// the WAL replay (wrapped observe passes only).
	records [][]wal.Record
}

func (lp *loopPass) stats() protocol.DecideStats {
	var st protocol.DecideStats
	for _, l := range lp.loops {
		st = addStats(st, l.DecideStats())
	}
	return st
}

func (lp *loopPass) walRecords() []wal.Record {
	var out []wal.Record
	for _, rs := range lp.records {
		out = append(out, rs...)
	}
	return out
}

// loopPass builds the loops and their pass. Wrapped loops get timing
// wrappers at their seams; plain loops run unwrapped, record only their
// round spans, and count allocations.
func (w serveWorkload) loopPass(cfg runConfig, in *serveInputs, tracers []*tracer, wrapped bool) (*loopPass, error) {
	per := serveInstances / serveClients
	lp := &loopPass{loops: make([]*core.Loop, serveInstances), records: make([][]wal.Record, serveClients)}
	var shared *spec.Artifacts
	var rt *protocol.Runtime
	arena := protocol.NewDecideArena()
	for i := range lp.loops {
		b, err := spec.Build(in.specs[i])
		if err != nil {
			return nil, err
		}
		if rt == nil {
			// Every instance shares artifact seed 1, so one runtime and
			// one scratch arena serve them all, as in the registry.
			shared = b.Artifacts
			if rt, err = protocol.New(protocol.Config{Ext: shared.Ext, R: b.Spec.Decision.R, D: b.Spec.Decision.D}); err != nil {
				return nil, err
			}
		}
		dec := rt.NewDecider()
		dec.SetArena(arena)
		lc := core.LoopConfig{Ext: shared.Ext, Runtime: rt, Decider: dec, Policy: b.Policy, Sampler: b.Sampler, UpdateEvery: b.Spec.Decision.UpdateEvery}
		var plane *tracedPlane
		if wrapped {
			t := tracers[i/per]
			plane = &tracedPlane{DecisionPlane: dec, t: t}
			lc.Decider, lc.Policy, lc.Sampler = plane, wrapPolicy(b.Policy, t), &tracedSampler{Sampler: b.Sampler, t: t}
			lp.planes = append(lp.planes, plane)
		}
		loop, err := core.NewLoop(lc)
		if err != nil {
			return nil, err
		}
		if plane != nil {
			plane.traceDecides(loop)
		}
		lp.loops[i] = loop
	}
	chk := newRoundChecker(in)
	models := w.rewardModels(cfg.Seed, in)
	batches := make([][]serve.ObservationBatch, serveClients)
	for c := range batches {
		batches[c] = make([]serve.ObservationBatch, w.slotsPerRound)
	}
	do := func(c, i, r int) error {
		var t *tracer
		if wrapped {
			t = tracers[c]
		}
		loop, p := lp.loops[i], &chk.prints[i]
		if !w.observe {
			// Sum the request's slots first, as the server does.
			total := 0.0
			for s := 0; s < w.slotsPerRound; s++ {
				sp := t.begin(kindLoopStep)
				x, err := loop.StepSampled(nil)
				t.end(sp)
				if err != nil {
					return chk.fail("%s: loop step: %v", instanceID(i), err)
				}
				total += x
			}
			p.observed += total
			p.slot += w.slotsPerRound
			return chk.assignment(i, loop.Slot(), loop.Winners())
		}
		sp := t.begin(kindLoopStep)
		_, err := loop.EnsureDecided()
		t.end(sp)
		if err != nil {
			return chk.fail("%s: loop decide: %v", instanceID(i), err)
		}
		if err := chk.assignment(i, loop.Slot(), loop.Winners()); err != nil {
			return err
		}
		fillBatches(batches[c], loop.Winners(), models[i], p)
		for _, b := range batches[c] {
			if wrapped && sampledRound(r) {
				lp.records[c] = append(lp.records[c], wal.Record{Slot: loop.Slot(), Played: b.Played,
					Rewards: append([]float64(nil), b.Rewards...)})
			}
			sp := t.begin(kindLoopStep)
			err := loop.StepExternal(b.Played, b.Rewards, nil)
			t.end(sp)
			if err != nil {
				return chk.fail("%s: loop observe: %v", instanceID(i), err)
			}
		}
		p.slot += len(batches[c])
		return chk.expectSlot(i, loop.Slot())
	}
	root := kindPlainRound
	if wrapped {
		root = kindTracedRound
	}
	lp.pass = &pass{do: do, root: root, tracers: tracers, chk: chk, countAllocs: !wrapped}
	return lp, nil
}

// addStats sums two decide-stat totals.
func addStats(a, b protocol.DecideStats) protocol.DecideStats {
	a.FullDecides += b.FullDecides
	a.EpochSkips += b.EpochSkips
	a.LeaderSkips += b.LeaderSkips
	a.SensitivitySkips += b.SensitivitySkips
	a.MemoStructHits += b.MemoStructHits
	a.MemoMisses += b.MemoMisses
	a.MiniRounds += b.MiniRounds
	return a
}

// replayWAL appends the observe stream's records to a fresh segment in the
// run's data directory, syncing once per round as the batch policy does,
// and returns the mean Append time and framed bytes per record.
func replayWAL(cfg runConfig, recs []wal.Record) (float64, float64, error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	dir := filepath.Join(cfg.Out, fmt.Sprintf("wal-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Create(filepath.Join(dir, wal.SegmentName(0)), 0, wal.SyncBatch)
	if err != nil {
		return 0, 0, err
	}
	var ns, bytes int64
	for i, r := range recs {
		t0 := time.Now()
		err := log.Append(r)
		ns += int64(time.Since(t0))
		if err != nil {
			log.Close()
			return 0, 0, err
		}
		bytes += int64(log.AppendedBytes())
		if (i+1)%serveObserve.slotsPerRound == 0 {
			if err := log.Sync(); err != nil {
				log.Close()
				return 0, 0, err
			}
		}
	}
	if err := log.Close(); err != nil {
		return 0, 0, err
	}
	n := float64(len(recs))
	return float64(ns) / n, float64(bytes) / n, nil
}

// wireBytes reads banditd_wire_bytes_total, summed over directions, from
// the registry's metrics.
func wireBytes(reg *serve.Registry) float64 {
	var b strings.Builder
	reg.Obs().WritePrometheus(&b)
	total := 0.0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "banditd_wire_bytes_total") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// spanPath is where a traced run writes its spans. Each traced run of a
// workload replaces the previous run's file, which bounds the disk the
// span files take.
func spanPath(cfg runConfig, workload string) string {
	return filepath.Join(cfg.Out, "spans-"+workload+".jsonl")
}
