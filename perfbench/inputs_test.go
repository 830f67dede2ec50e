package main

import (
	"reflect"
	"testing"
)

// generated collects every input a run derives from its seed.
type generated struct {
	Noise   []int64
	Means   [][]float64
	Rewards [][]float64
	Weights [][]float64
}

func generate(seed int64) generated {
	g := generated{Noise: instanceNoiseSeeds(seed, serveInstances)}
	played := []int{0, 3, 5, 7}
	for _, m := range newRewardModels(seed, 4, 20) {
		g.Means = append(g.Means, m.means)
		var draws []float64
		for i := 0; i < 8; i++ {
			draws = append(draws, m.draw(played, nil)...)
		}
		g.Rewards = append(g.Rewards, draws)
	}
	d := newWeightDrift(seed, 256)
	for i := 0; i < 5; i++ {
		g.Weights = append(g.Weights, append([]float64(nil), d.w...))
		d.step()
	}
	return g
}

// TestInputsFollowSeed checks that the same seed regenerates identical
// inputs and that different seeds give different ones, field by field.
func TestInputsFollowSeed(t *testing.T) {
	a, b, c := generate(11), generate(11), generate(12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a.Noise, c.Noise) {
		t.Error("noise seeds do not depend on the seed")
	}
	if reflect.DeepEqual(a.Means, c.Means) {
		t.Error("reward means do not depend on the seed")
	}
	if reflect.DeepEqual(a.Rewards, c.Rewards) {
		t.Error("reward draws do not depend on the seed")
	}
	if reflect.DeepEqual(a.Weights, c.Weights) {
		t.Error("distnet weight drift does not depend on the seed")
	}
	for _, m := range a.Means {
		for _, x := range m {
			if x < 0 || x > 1 {
				t.Fatalf("reward mean %v outside [0,1]", x)
			}
		}
	}
	for _, r := range a.Rewards {
		for _, x := range r {
			if x < 0 || x > 1 {
				t.Fatalf("reward %v outside [0,1]", x)
			}
		}
	}
}

// TestServeInputsFollowSeed checks the same property on the specs the
// serving workloads create.
func TestServeInputsFollowSeed(t *testing.T) {
	a, err := serveStep.inputs(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveStep.inputs(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := serveStep.inputs(6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.specs, b.specs) {
		t.Fatal("the same seed generated different instance specs")
	}
	if reflect.DeepEqual(a.specs, c.specs) {
		t.Fatal("instance specs do not depend on the seed")
	}
}
