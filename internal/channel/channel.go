// Package channel models the stochastic channels the secondary users learn:
// for every (node, channel) pair an i.i.d. process ξ_{i,j}(t) with unknown
// mean µ_{i,j}.
//
// The paper's simulations use 8 channel types with mean data rates
// 150–1350 kbps, each evolving as a distinct i.i.d. Gaussian process. This
// package reproduces that model and adds Bernoulli and Uniform processes for
// tests and property checks. Means are normalized into [0, 1] internally
// (the paper's µ_{i,j} ∈ [0, 1]); Catalog carries the kbps scale so
// experiment output can be reported in the paper's units.
package channel

import (
	"fmt"
	"math"

	"multihopbandit/internal/rng"
)

// PaperRatesKbps are the 8 channel data rates (kbps) of the paper's
// Section V, taken from the referenced cognitive-radio system.
var PaperRatesKbps = []float64{150, 225, 300, 450, 600, 900, 1200, 1350}

// MaxPaperRateKbps is the normalization constant mapping kbps to [0, 1].
const MaxPaperRateKbps = 1350.0

// ValidReward reports whether x lies in the paper's reward domain: an
// observed data rate, so finite and non-negative. The domain has no upper
// cap. Rewards are on the normalized rate scale, but an externally observed
// link may outrun the catalog's fastest rate, and every learner stays
// well defined for any finite value; a negative, NaN or infinite reward
// would instead poison the index weights every later decision reads.
func ValidReward(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// Kind selects the distribution family of a channel process.
type Kind int

const (
	// Gaussian is the paper's model: mean µ, configurable σ, truncated to
	// [0, 1].
	Gaussian Kind = iota + 1
	// Bernoulli emits 1 with probability µ and 0 otherwise.
	Bernoulli
	// Uniform emits Uniform[µ−w, µ+w] truncated to [0, 1].
	Uniform
	// Constant always emits exactly µ (useful for deterministic tests).
	Constant
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case Bernoulli:
		return "bernoulli"
	case Uniform:
		return "uniform"
	case Constant:
		return "constant"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Model holds the true per-(node, channel) means and samples rewards. Node i
// choosing channel j observes one draw of ξ_{i,j}(t) per round.
type Model struct {
	n, m  int
	kind  Kind
	sigma float64 // Gaussian stddev or Uniform half-width
	means []float64
	src   *rng.Source
}

// Config parameterizes NewModel.
type Config struct {
	// N is the number of nodes; must be positive.
	N int
	// M is the number of channels per node; must be positive.
	M int
	// Kind selects the distribution family (default Gaussian).
	Kind Kind
	// Sigma is the Gaussian standard deviation or Uniform half-width of
	// each draw, in normalized units. Default 0.05 (≈ 67 kbps).
	Sigma float64
}

func (c *Config) fill() error {
	if c.N <= 0 || c.M <= 0 {
		return fmt.Errorf("channel: N and M must be positive, got N=%d M=%d", c.N, c.M)
	}
	if c.Kind == 0 {
		c.Kind = Gaussian
	}
	if c.Sigma == 0 {
		c.Sigma = 0.05
	}
	if c.Sigma < 0 {
		return fmt.Errorf("channel: sigma must be non-negative, got %v", c.Sigma)
	}
	return nil
}

// NewModel creates a model whose means are drawn per (node, channel) from the
// paper's 8-rate catalog (normalized to [0,1]) using the "means" sub-stream
// of src, and whose per-round noise uses the "noise" sub-stream.
func NewModel(cfg Config, src *rng.Source) (*Model, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	meansSrc := src.Split("channel-means")
	means := make([]float64, cfg.N*cfg.M)
	for i := range means {
		rate := PaperRatesKbps[meansSrc.Intn(len(PaperRatesKbps))]
		means[i] = rate / MaxPaperRateKbps
	}
	return newModelWithMeans(cfg, means, src)
}

// NewModelWithMeans creates a model with explicit normalized means, indexed
// by arm id k = node·M + channel. Means must lie in [0, 1].
func NewModelWithMeans(cfg Config, means []float64, src *rng.Source) (*Model, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(means) != cfg.N*cfg.M {
		return nil, fmt.Errorf("channel: need %d means, got %d", cfg.N*cfg.M, len(means))
	}
	for k, mu := range means {
		if mu < 0 || mu > 1 {
			return nil, fmt.Errorf("channel: mean[%d]=%v outside [0,1]", k, mu)
		}
	}
	return newModelWithMeans(cfg, append([]float64(nil), means...), src)
}

func newModelWithMeans(cfg Config, means []float64, src *rng.Source) (*Model, error) {
	return &Model{
		n:     cfg.N,
		m:     cfg.M,
		kind:  cfg.Kind,
		sigma: cfg.Sigma,
		means: means,
		src:   src.Split("channel-noise"),
	}, nil
}

// N returns the number of nodes.
func (md *Model) N() int { return md.n }

// M returns the number of channels.
func (md *Model) M() int { return md.m }

// K returns the number of arms N·M.
func (md *Model) K() int { return md.n * md.m }

// Kind returns the distribution family.
func (md *Model) Kind() Kind { return md.kind }

// Mean returns the true normalized mean µ of arm k = node·M + channel.
func (md *Model) Mean(k int) float64 { return md.means[k] }

// MeanOf returns the true normalized mean of (node, channel).
func (md *Model) MeanOf(node, ch int) float64 { return md.means[node*md.m+ch] }

// Means returns a copy of all true means indexed by arm id.
func (md *Model) Means() []float64 { return append([]float64(nil), md.means...) }

// Sample draws one reward for arm k. Samples are i.i.d. over calls.
func (md *Model) Sample(k int) float64 {
	mu := md.means[k]
	switch md.kind {
	case Gaussian:
		return md.src.TruncGaussian(mu, md.sigma, 0, 1)
	case Bernoulli:
		if md.src.Bernoulli(mu) {
			return 1
		}
		return 0
	case Uniform:
		lo, hi := mu-md.sigma, mu+md.sigma
		if lo < 0 {
			lo = 0
		}
		if hi > 1 {
			hi = 1
		}
		if hi <= lo {
			return mu
		}
		return md.src.UniformRange(lo, hi)
	case Constant:
		return mu
	default:
		return mu
	}
}

// SampleOf draws one reward for (node, channel).
func (md *Model) SampleOf(node, ch int) float64 { return md.Sample(node*md.m + ch) }

// Kbps converts a normalized reward back to the paper's kbps scale.
func Kbps(normalized float64) float64 { return normalized * MaxPaperRateKbps }
