package main

import (
	"multihopbandit/internal/rng"
)

// Every generated input derives from the workload seed through named
// streams of rng.New(seed), so the same seed always yields the same inputs
// and the program under test receives only those inputs. The topologies
// (artifact seed 1) and the distnet fault pattern (fault seed 1) are part
// of each workload's definition and do not vary with the seed.

// instanceNoiseSeeds draws one noise seed per hosted instance.
func instanceNoiseSeeds(seed int64, n int) []int64 {
	src := rng.New(seed).SplitPath("perfbench", "noise-seeds")
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Int63()
	}
	return out
}

// rewardModel is the benchmark's own reward environment for one instance
// fed external observations: a seeded per-arm mean on the normalized rate
// scale [0,1] and a stream the realized rewards are drawn from.
type rewardModel struct {
	means []float64
	src   *rng.Source
}

// rewardSigma is the spread of a realized reward around its arm's mean.
const rewardSigma = 0.1

// newRewardModels builds one reward model per instance over k arms.
func newRewardModels(seed int64, instances, k int) []*rewardModel {
	root := rng.New(seed).SplitPath("perfbench", "rewards")
	out := make([]*rewardModel, instances)
	for i := range out {
		src := root.SplitN("instance", i)
		means := make([]float64, k)
		meanSrc := src.Split("means")
		for a := range means {
			means[a] = meanSrc.Float64()
		}
		out[i] = &rewardModel{means: means, src: src.Split("draws")}
	}
	return out
}

// draw fills rewards with one realized reward per played arm, truncated to
// [0,1].
func (m *rewardModel) draw(played []int, rewards []float64) []float64 {
	rewards = rewards[:0]
	for _, v := range played {
		rewards = append(rewards, m.src.TruncGaussian(m.means[v], rewardSigma, 0, 1))
	}
	return rewards
}

// weightDrift is the distnet workload's weight process: initial uniform
// weights, then before every decision each weight is redrawn with
// probability driftProb, the way cmd/distbench evolves them.
type weightDrift struct {
	w   []float64
	src *rng.Source
}

const driftProb = 0.2

func newWeightDrift(seed int64, k int) *weightDrift {
	src := rng.New(seed).SplitPath("perfbench", "distnet-weights")
	w := make([]float64, k)
	for i := range w {
		w[i] = src.Float64()
	}
	return &weightDrift{w: w, src: src}
}

// step advances the weights by one decision's drift.
func (d *weightDrift) step() {
	for i := range d.w {
		if d.src.Float64() < driftProb {
			d.w[i] = d.src.Float64()
		}
	}
}
