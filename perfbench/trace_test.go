package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
//
//	wire.round    [0,100)
//	  serve.round [10,90)
//	    core.round_traced [20,80)
//	      protocol.decide [20,50)
//	        protocol.broadcast [20,25)
//	        protocol.local_mwis [25,45)
//	      policy.update [40,60)   overlaps the decide: counted once
//	      channel.sample [70,75)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Parent: -1, Kind: kindWireRound, Start: 0, End: 100},
		{Parent: 0, Kind: kindSessionRound, Start: 10, End: 90},
		{Parent: 1, Kind: kindTracedRound, Start: 20, End: 80},
		{Parent: 2, Kind: kindDecide, Start: 20, End: 50},
		{Parent: 3, Kind: kindBroadcast, Start: 20, End: 25},
		{Parent: 3, Kind: kindLocalMWIS, Start: 25, End: 45},
		{Parent: 2, Kind: kindUpdate, Start: 40, End: 60},
		{Parent: 2, Kind: kindSample, Start: 70, End: 75},
	}
	self, count := selfTimes(spans)
	want := map[spanKind]int64{
		kindWireRound:    20,
		kindSessionRound: 20,
		kindTracedRound:  60 - (40 + 5), // children cover [20,60) and [70,75)
		kindDecide:       30 - 25,
		kindBroadcast:    5,
		kindLocalMWIS:    20,
		kindUpdate:       20,
		kindSample:       5,
	}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("%s self = %d, want %d", k, self[k], v)
		}
		if count[k] != 1 {
			t.Errorf("%s count = %d, want 1", k, count[k])
		}
	}
	// Siblings that overlap each keep the shared interval [40,50) in their
	// self time, so the self times sum to the root plus that overlap.
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 100+10 {
		t.Errorf("self times sum to %d, want 110", total)
	}
}

// TestSelfTimeNegative checks that a grafted child outlasting its parent
// gives a negative self time instead of being clipped.
func TestSelfTimeNegative(t *testing.T) {
	spans := []span{
		{Parent: -1, Kind: kindSessionRound, Start: 0, End: 10},
		{Parent: 0, Kind: kindPlainRound, Start: 0, End: 12},
	}
	self, _ := selfTimes(spans)
	if self[kindSessionRound] != -2 {
		t.Fatalf("self = %d, want -2", self[kindSessionRound])
	}
}

// TestGraft checks that inner round trees are shifted under the outer
// root of the same round and that unmatched inner rounds are dropped.
func TestGraft(t *testing.T) {
	outer := []span{
		{Parent: -1, Kind: kindWireRound, Round: 1, Start: 1000, End: 1100},
		{Parent: -1, Kind: kindWireRound, Round: 2, Start: 2000, End: 2100},
	}
	inner := []span{
		{Parent: -1, Kind: kindSessionRound, Round: 3, Start: 0, End: 50}, // no outer round 3
		{Parent: -1, Kind: kindSessionRound, Round: 2, Start: 500, End: 560},
		{Parent: 0, Kind: kindSample, Round: 3, Start: 10, End: 20},
		{Parent: 1, Kind: kindSample, Round: 2, Start: 510, End: 520},
	}
	got := graft(outer, inner)
	want := []span{
		outer[0], outer[1],
		{Parent: 1, Kind: kindSessionRound, Round: 2, Start: 2000, End: 2060},
		{Parent: 2, Kind: kindSample, Round: 2, Start: 2010, End: 2020},
	}
	if len(got) != len(want) {
		t.Fatalf("graft returned %d spans, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	self, _ := selfTimes(got)
	if self[kindWireRound] != 100+40 {
		t.Errorf("wire self = %d, want 140", self[kindWireRound])
	}
}

// TestTracerSampling checks that unsampled rounds record nothing and that
// parents are the enclosing open spans.
func TestTracerSampling(t *testing.T) {
	tr := newTracer(time.Now())
	tr.startRound(1, false)
	if id := tr.begin(kindWireRound); id != -1 {
		t.Fatalf("unsampled round recorded span %d", id)
	}
	tr.startRound(2, true)
	root := tr.begin(kindWireRound)
	inner := tr.begin(kindUpdate)
	tr.end(inner)
	tr.child(kindSample, tr.spans[root].Start, 5)
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[1].Parent != root || tr.spans[2].Parent != root || tr.spans[0].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"id", "parent", "name", "round", "start_ns", "end_ns"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d lacks %q", lines, k)
			}
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("%d JSONL lines, want 3", lines)
	}
}
