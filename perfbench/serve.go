package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"multihopbandit/internal/graph"
	"multihopbandit/internal/serve"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/wire"
)

// serveWorkload describes one of the two serving workloads: the instance
// shape, the request recipe and the amount of work.
type serveWorkload struct {
	name string
	// n×m is the instance shape; every instance shares artifact seed 1.
	n, m        int
	updateEvery int
	// persist adds, to the traced run, a level that drives the same
	// requests through a registry persisted with PersistOptions{All:
	// true}, and a replay of the observe stream through wal.Log. The
	// timed runs stay unpersisted: the benchmark may write only inside its
	// checkout, on a shared disk, where a persisted set-up (64 creates,
	// each fsyncing) moved its median by 40% within the hour and the
	// persisted work spread as widely as the unpersisted one.
	persist bool
	// observe selects the write path (Assignment, then Observe with
	// slotsPerRound batches); otherwise each round is one Step of
	// slotsPerRound slots.
	observe       bool
	slotsPerRound int
	// roundsPerRep is rounds per repetition (about repSeconds on 2 cores).
	roundsPerRep int
}

const (
	serveInstances = 64
	serveClients   = 2
	// snapshotEvery keeps snapshots out of the persisted level: an
	// instance applies fewer slots than this in a run. Snapshot and batch
	// fsyncs would add the disk's fsync latency to every persisted round;
	// with fsync "none" the persisted level measures the program's own
	// WAL path (encode and write).
	snapshotEvery = 1 << 20
)

var (
	serveStep = serveWorkload{
		name: "serve-step", n: 15, m: 3, updateEvery: 1,
		slotsPerRound: 16, roundsPerRep: 240,
	}
	serveObserve = serveWorkload{
		name: "serve-observe", n: 10, m: 2, updateEvery: 8, persist: true, observe: true,
		slotsPerRound: 8, roundsPerRep: 1200,
	}
)

func runServeStep(cfg runConfig) (*outcome, error)    { return runServe(serveStep, cfg) }
func runServeObserve(cfg runConfig) (*outcome, error) { return runServe(serveObserve, cfg) }

// instanceSpec is the scenario of hosted instance i.
func (w serveWorkload) instanceSpec(noiseSeed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Seed:      1,
		NoiseSeed: noiseSeed,
		Topology:  spec.TopologySpec{Kind: spec.TopologyRandom, N: w.n, RequireConnected: true},
		Channel:   spec.ChannelSpec{Kind: spec.ChannelGaussian, M: w.m},
		Policy:    spec.PolicySpec{Kind: spec.PolicyZhouLi},
		Decision:  spec.DecisionSpec{R: 2, D: 4, UpdateEvery: w.updateEvery},
	}
}

func instanceID(i int) string { return fmt.Sprintf("i%02d", i) }

// serveInputs are a run's generated inputs and the checker's reference
// data.
type serveInputs struct {
	specs []spec.ScenarioSpec
	// conflict is the shared extended conflict graph, rebuilt
	// independently of the server with spec.BuildArtifacts.
	conflict *graph.Graph
	k        int
}

func (w serveWorkload) inputs(seed int64) (*serveInputs, error) {
	noise := instanceNoiseSeeds(seed, serveInstances)
	in := &serveInputs{specs: make([]spec.ScenarioSpec, serveInstances)}
	for i := range in.specs {
		in.specs[i] = w.instanceSpec(noise[i])
	}
	canon, err := in.specs[0].Canonical()
	if err != nil {
		return nil, err
	}
	arts, err := spec.BuildArtifacts(canon)
	if err != nil {
		return nil, err
	}
	in.conflict = arts.Ext.H
	in.k = arts.Ext.K()
	return in, nil
}

// rewardModels are the observe workload's environments, fresh per level so
// that every level replays the identical observation stream.
func (w serveWorkload) rewardModels(seed int64, in *serveInputs) []*rewardModel {
	if !w.observe {
		return nil
	}
	return newRewardModels(seed, serveInstances, in.k)
}

// serveStack is a registry behind a wire server on loopback with one
// dialed client.
type serveStack struct {
	reg     *serve.Registry
	srv     *wire.Server
	cli     *wire.Client
	served  chan struct{}
	dataDir string
}

// startStack brings up the stack and creates the instances. dataDir ""
// runs without persistence.
func startStack(specs []spec.ScenarioSpec, dataDir string, dial bool) (*serveStack, error) {
	rc := serve.RegistryConfig{}
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		rc.Persist = serve.PersistOptions{DataDir: dataDir, All: true, Fsync: spec.FsyncNone, SnapshotEvery: snapshotEvery}
	}
	st := &serveStack{reg: serve.NewRegistry(rc), dataDir: dataDir}
	if dial {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.stop()
			return nil, err
		}
		st.srv = wire.NewServer(st.reg)
		st.served = make(chan struct{})
		go func() {
			defer close(st.served)
			_ = st.srv.Serve(ln) // returns once Shutdown closes the listener
		}()
		if st.cli, err = wire.Dial(ln.Addr().String(), wire.Options{}); err != nil {
			st.stop()
			return nil, err
		}
	}
	for i, s := range specs {
		cfg := serve.InstanceConfig{ID: instanceID(i), Spec: s}
		var err error
		if st.cli != nil {
			_, err = st.cli.Create(cfg)
		} else {
			_, err = st.reg.Create(cfg)
		}
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("create %s: %w", cfg.ID, err)
		}
	}
	return st, nil
}

// stop tears the stack down and waits for the server goroutines.
func (st *serveStack) stop() {
	if st.cli != nil {
		st.cli.Close()
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = st.srv.Shutdown(ctx) // forced close after the timeout is fine here
		cancel()
		<-st.served
	}
	if st.dataDir == "" {
		st.reg.Close()
		return
	}
	// A graceful close publishes a final snapshot per instance, and its
	// fsyncs would push the run's page-cache WAL data to the shared disk
	// and slow every later repetition. The state is scratch, so close as
	// a crash would and delete it before the kernel writes it back.
	st.reg.CloseAbrupt()
	_ = os.RemoveAll(st.dataDir) // scratch state of this run
}

// fingerprint is an instance's observable end state at one level. Every
// level of the ladder must produce the same fingerprints.
type fingerprint struct {
	slot     int
	winners  []int
	observed float64
}

// roundChecker validates replies and accumulates fingerprints. Each
// instance is touched by one client goroutine only.
type roundChecker struct {
	in       *serveInputs
	mu       sync.Mutex
	problems []string
	prints   []fingerprint
}

func newRoundChecker(in *serveInputs) *roundChecker {
	return &roundChecker{in: in, prints: make([]fingerprint, serveInstances)}
}

func (c *roundChecker) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	c.mu.Lock()
	c.problems = append(c.problems, err.Error())
	c.mu.Unlock()
	return err
}

// expectSlot checks that instance i advanced by exactly the work sent.
func (c *roundChecker) expectSlot(i, got int) error {
	if want := c.prints[i].slot; got != want {
		return c.fail("%s: slot %d, want %d", instanceID(i), got, want)
	}
	return nil
}

// assignment checks a returned assignment: it must be valid for the
// instance's current slot and its winners independent in H.
func (c *roundChecker) assignment(i, slot int, winners []int) error {
	if err := c.expectSlot(i, slot); err != nil {
		return err
	}
	if !c.in.conflict.IsIndependent(winners) {
		return c.fail("%s: winners %v not independent at slot %d", instanceID(i), winners, slot)
	}
	c.prints[i].winners = append(c.prints[i].winners[:0], winners...)
	return nil
}

// sameAs reports every instance whose fingerprint differs from ref's.
func (c *roundChecker) sameAs(ref *roundChecker, level string) []string {
	var out []string
	for i := range c.prints {
		a, b := c.prints[i], ref.prints[i]
		if a.slot != b.slot || a.observed != b.observed || !equalInts(a.winners, b.winners) {
			out = append(out, fmt.Sprintf("%s: %s level diverged from the wire level (slot %d/%d, observed %v/%v)",
				instanceID(i), level, a.slot, b.slot, a.observed, b.observed))
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundFunc runs round r of instance i on one client goroutine.
type roundFunc func(client, i, r int) error

// pass is one level's run of the request sequence.
type pass struct {
	do      roundFunc
	root    spanKind
	tracers []*tracer // nil records no spans
	chk     *roundChecker
	// lat is every round's latency in µs, wall the summed time the pass
	// ran; both are filled by drive.
	lat  []float64
	wall float64
	// countAllocs makes drive count the heap allocations of the pass into
	// mallocs.
	countAllocs bool
	mallocs     uint64
}

// drive runs the closed-loop request sequence of every pass: serveClients
// goroutines per pass, each owning an equal share of the instances and
// sending its next request only after the previous one completed. One pass
// runs free; several run interleaved round by round, in reverse order on
// odd rounds, so that drift in the machine's speed and the position of a
// pass after another charge every level alike.
func drive(rounds int, passes ...*pass) error {
	step := rounds
	if len(passes) > 1 {
		step = 1
	}
	for _, p := range passes {
		p.lat = make([]float64, 0, rounds*serveInstances)
	}
	for r0 := 0; r0 < rounds; r0 += step {
		for j := range passes {
			p := passes[j]
			if r0%2 == 1 {
				p = passes[len(passes)-1-j]
			}
			if err := p.run(r0, r0+step); err != nil {
				return err
			}
		}
	}
	return nil
}

// run drives rounds [from, to) of the pass.
func (p *pass) run(from, to int) error {
	per := serveInstances / serveClients
	lat := make([][]float64, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	if p.countAllocs {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		lat[c] = make([]float64, 0, (to-from)*per)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if p.tracers != nil {
				tr = p.tracers[c]
			}
			for r := from; r < to; r++ {
				for j := 0; j < per; j++ {
					i := c*per + j
					if tr != nil {
						tr.startRound(roundID(i, r), sampledRound(r))
					}
					root := tr.begin(p.root)
					t0 := time.Now()
					err := p.do(c, i, r)
					lat[c] = append(lat[c], float64(time.Since(t0).Nanoseconds())/1e3)
					tr.end(root)
					if err != nil {
						errs[c] = err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall += time.Since(start).Seconds()
	if p.countAllocs {
		runtime.ReadMemStats(&after)
		p.mallocs += after.Mallocs - before.Mallocs
	}
	for c := range lat {
		p.lat = append(p.lat, lat[c]...)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wireRounds is the request recipe through the wire client: the level the
// end-to-end metrics are measured at.
func (w serveWorkload) wireRounds(cli *wire.Client, chk *roundChecker, models []*rewardModel) roundFunc {
	type scratch struct {
		step    serve.StepResult
		as      serve.Assignment
		obs     serve.ObserveResult
		batches []serve.ObservationBatch
	}
	sc := make([]*scratch, serveClients)
	for c := range sc {
		sc[c] = &scratch{batches: make([]serve.ObservationBatch, w.slotsPerRound)}
	}
	return func(c, i, r int) error {
		s := sc[c]
		id := instanceID(i)
		p := &chk.prints[i]
		if !w.observe {
			if err := cli.StepInto(id, w.slotsPerRound, &s.step); err != nil {
				return chk.fail("%s: step: %v", id, err)
			}
			p.slot += w.slotsPerRound
			p.observed += s.step.Observed
			if s.step.Slots != w.slotsPerRound {
				return chk.fail("%s: step ran %d slots, sent %d", id, s.step.Slots, w.slotsPerRound)
			}
			return chk.assignment(i, s.step.Slot, s.step.Assignment.Winners)
		}
		if err := cli.AssignmentInto(id, &s.as); err != nil {
			return chk.fail("%s: assignment: %v", id, err)
		}
		if err := chk.assignment(i, s.as.Slot, s.as.Winners); err != nil {
			return err
		}
		fillBatches(s.batches, s.as.Winners, models[i], p)
		if err := cli.ObserveInto(id, s.batches, &s.obs); err != nil {
			return chk.fail("%s: observe: %v", id, err)
		}
		p.slot += len(s.batches)
		if s.obs.Applied != len(s.batches) {
			return chk.fail("%s: observe applied %d of %d batches", id, s.obs.Applied, len(s.batches))
		}
		return chk.expectSlot(i, s.obs.Slot)
	}
}

// fillBatches plays the assignment's winners in every batch with rewards
// drawn from the instance's reward model, and folds them into the
// fingerprint.
func fillBatches(batches []serve.ObservationBatch, winners []int, m *rewardModel, p *fingerprint) {
	for b := range batches {
		batches[b].Played = winners
		batches[b].Rewards = m.draw(winners, batches[b].Rewards)
		for _, x := range batches[b].Rewards {
			p.observed += x
		}
	}
}

// serveProcs is the GOMAXPROCS the serving workloads run at. Each round is
// a chain of goroutine hand-offs (client, connection, actor and back); with
// two Ps every hand-off to the other P wakes an idle vCPU, which on a
// shared host waits for the hypervisor, and that wait, not the program,
// set the spread of the figures. At one P the process stays runnable on
// one vCPU: on a 2-core VM serve-step ran 15-20% faster, its round p99
// halved, and serve-observe ran 10% faster.
const serveProcs = 1

// runServe runs a serving workload: set-up repeats, then the fixed request
// sequence through the wire client.
func runServe(w serveWorkload, cfg runConfig) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	in, err := w.inputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return runServeTraced(w, cfg, in)
	}
	rounds := w.roundsPerRep
	o := &outcome{}
	var walls, lat []float64
	setupS, err := repeatRuns(cfg.reps(),
		func() (*serveStack, error) { return startStack(in.specs, "", true) },
		func(st *serveStack) error {
			p := w.wirePass(cfg, in, st, nil)
			err := drive(rounds, p)
			o.Attempted += len(p.lat)
			o.Problems = append(o.Problems, p.chk.problems...)
			walls = append(walls, p.wall)
			lat = append(lat, p.lat...)
			if len(p.chk.problems) > 0 {
				return nil // reported as a failed check
			}
			return err
		},
		func(st *serveStack) { st.stop() })
	if err != nil {
		return nil, err
	}
	note("%s: repetition walls %.3f s", w.name, walls)
	workS := median(walls)
	slots := float64(rounds * serveInstances * w.slotsPerRound)
	o.setEndToEnd(workS, lat, setupS)
	note("%s: %d x %d rounds of %.0f slots, median %.3f s: slots_per_s %.0f, round p50 %.1f us, p90 %.1f us, p99 %.1f us, failed_frac %g, setup %.4f s",
		w.name, cfg.reps(), rounds*serveInstances, slots, workS, slots/workS, percentile(lat, 0.5), percentile(lat, 0.9),
		percentile(lat, 0.99), ratio(float64(len(o.Problems)), float64(o.Attempted)), setupS)
	return o, nil
}

// wirePass is the request sequence through the stack's wire client.
func (w serveWorkload) wirePass(cfg runConfig, in *serveInputs, st *serveStack, tracers []*tracer) *pass {
	chk := newRoundChecker(in)
	return &pass{do: w.wireRounds(st.cli, chk, w.rewardModels(cfg.Seed, in)), root: kindWireRound, tracers: tracers, chk: chk}
}

// dataDir is where the persisted level keeps its state: inside the run's
// output directory, removed when the stack stops.
func dataDir(cfg runConfig) string {
	return filepath.Join(cfg.Out, fmt.Sprintf("data-%d", os.Getpid()))
}
