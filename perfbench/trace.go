package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanKind names what a span covers. Kinds are grouped by the layer whose
// public call they wrap.
type spanKind uint8

const (
	kindWireRound    spanKind = iota // one round through wire.Client
	kindPersistRound                 // one round through serve.Session, persisted
	kindSessionRound                 // one round through serve.Session, unpersisted
	kindPlainRound                   // one round driven on plain core.Loops
	kindTracedRound                  // one round driven on wrapped core.Loops
	kindLoopStep                     // one core.Loop StepSampled / StepExternal / EnsureDecided
	kindWriteIndices                 // policy.IndexWriter.WriteIndices
	kindUpdate                       // policy.Policy.Update
	kindSample                       // channel.Sampler.Sample
	kindDecide                       // core.DecisionPlane.DecideEpoch
	kindBroadcast                    // decide phase: weight broadcast
	kindElection                     // decide phase: leader election
	kindLocalMWIS                    // decide phase: local MWIS
	kindFinalize                     // decide phase: finalize
	kindDistDecide                   // distnet.Runtime.Decide
	kindSolve                        // mwis.Solver.Solve
	numKinds
)

var kindNames = [numKinds]string{
	"wire.round", "serve.persisted_round", "serve.round", "core.round", "core.round_traced", "core.step",
	"policy.write_indices", "policy.update", "channel.sample",
	"protocol.decide", "protocol.broadcast", "protocol.election", "protocol.local_mwis", "protocol.finalize",
	"distnet.decide", "mwis.solve",
}

func (k spanKind) String() string { return kindNames[k] }

// span is one timed call. Times are nanoseconds since the tracer's base;
// Parent is the index of the enclosing span in the same slice, or -1.
type span struct {
	Parent int32
	Kind   spanKind
	Round  int64
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans of one goroutine in memory. Only sampled rounds are
// recorded; a nil tracer or an unsampled round records nothing and costs
// one branch per call.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
	round int64
	on    bool
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// sampleEvery is the round sampling period of the traced run: every
// instance's rounds 0, sampleEvery, 2·sampleEvery, … are recorded in full.
const sampleEvery = 16

func sampledRound(r int) bool { return r%sampleEvery == 0 }

// roundID identifies round r of instance i across every level of the
// ladder.
func roundID(i, r int) int64 { return int64(i)<<32 | int64(r) }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// startRound opens a new round; sampled selects whether it is recorded.
func (t *tracer) startRound(round int64, sampled bool) {
	t.round, t.on = round, sampled
	t.stack = t.stack[:0]
}

// begin opens a span of kind k under the innermost open span and returns
// its index (-1 when not recording).
func (t *tracer) begin(k spanKind) int32 {
	if t == nil || !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Parent: t.top(), Kind: k, Round: t.round, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// child records a closed span of kind k under the innermost open span,
// starting at start (tracer ns) and lasting d ns. It places the decide
// phases, which the decision plane reports as durations, back to back
// inside the decide span.
func (t *tracer) child(k spanKind, start, d int64) int64 {
	if t == nil || !t.on {
		return start
	}
	t.spans = append(t.spans, span{Parent: t.top(), Kind: k, Round: t.round, Start: start, End: start + d})
	return start + d
}

// lockedTracer is a tracer shared by concurrent goroutines (the distnet
// agents calling their solver). Spans are added closed, under a mutex,
// below the one open root span.
type lockedTracer struct {
	mu   sync.Mutex
	t    *tracer
	root int32
}

func (lt *lockedTracer) add(k spanKind, start, end int64) {
	lt.mu.Lock()
	if lt.t.on {
		lt.t.spans = append(lt.t.spans, span{Parent: lt.root, Kind: k, Round: lt.t.round, Start: start, End: end})
	}
	lt.mu.Unlock()
}

// selfTimes returns, per kind, the summed self time and span count of
// spans. A span's self time is its duration minus the length of the union
// of its children's intervals. The union is not clipped to the parent, so
// a child grafted from a separately timed level that outlasts its parent
// yields a negative self time and means over many rounds stay unbiased.
func selfTimes(spans []span) (self [numKinds]int64, count [numKinds]int64) {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
		}
		self[s.Kind] += s.dur() - unionLen(iv)
		count[s.Kind]++
	}
	return self, count
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			if x[1] > curE {
				curE = x[1]
			}
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// durations returns, per kind, the summed duration and count of spans.
func durations(spans []span) (sum [numKinds]int64, count [numKinds]int64) {
	for _, s := range spans {
		sum[s.Kind] += s.dur()
		count[s.Kind]++
	}
	return sum, count
}

// graft nests the round trees of an inner level inside the matching root
// spans of an outer level: each inner root is re-parented under the outer
// root of the same round id and shifted to start with it. The result is
// one span tree per round whose self times are the per-layer costs. Inner
// rounds without an outer root are dropped. Parents must precede their
// children in inner, which tracers guarantee.
func graft(outer, inner []span) []span {
	rootOf := make(map[int64]int32)
	for i, s := range outer {
		if s.Parent < 0 {
			rootOf[s.Round] = int32(i)
		}
	}
	shift := make(map[int64]int64)
	for _, s := range inner {
		if r, ok := rootOf[s.Round]; ok && s.Parent < 0 {
			shift[s.Round] = outer[r].Start - s.Start
		}
	}
	out := append([]span(nil), outer...)
	pos := make([]int32, len(inner))
	for i, s := range inner {
		d, ok := shift[s.Round]
		if !ok {
			pos[i] = -1
			continue
		}
		pos[i] = int32(len(out))
		s.Start += d
		s.End += d
		if s.Parent < 0 {
			s.Parent = rootOf[s.Round]
		} else {
			s.Parent = pos[s.Parent]
		}
		out = append(out, s)
	}
	return out
}

// mergeTracers concatenates the spans of several tracers.
func mergeTracers(ts []*tracer) []span {
	var out []span
	for _, t := range ts {
		out = concatSpans(out, t.spans)
	}
	return out
}

// concatSpans appends b to a, fixing b's parent indices.
func concatSpans(a, b []span) []span {
	off := int32(len(a))
	for _, s := range b {
		if s.Parent >= 0 {
			s.Parent += off
		}
		a = append(a, s)
	}
	return a
}

// writeSpans writes spans as JSONL: one object per span with its index,
// parent index, name, round id and start/end in ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Name   string `json:"name"`
		Round  int64  `json:"round"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for i, s := range spans {
		if err := enc.Encode(line{ID: i, Parent: s.Parent, Name: s.Kind.String(), Round: s.Round, Start: s.Start, End: s.End}); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
