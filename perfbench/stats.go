package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// setupsPerRep is how many times a workload sets itself up per
// repetition of its work. Set-ups take milliseconds, so a few more of them
// steady their median at little cost.
const setupsPerRep = 3

// repeatRuns builds the workload setupsPerRep times per repetition, and
// the last build of each repetition does the fixed work; every build is
// torn down. It returns the median set-up time. The reported setup_s is
// that median and work_s the median repetition's wall time, which keeps
// one slow set-up or one slow stretch of the machine from moving the
// figures.
func repeatRuns[T any](reps int, build func() (T, error), work func(T) error, teardown func(T)) (float64, error) {
	secs := make([]float64, 0, reps*setupsPerRep)
	for i := 0; i < reps*setupsPerRep; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i%setupsPerRep == setupsPerRep-1 {
			err = work(v)
		}
		teardown(v)
		if err != nil {
			return 0, err
		}
	}
	return median(secs), nil
}

// setEndToEnd fills the end-to-end metrics every workload reports: the
// median wall time of one repetition of the fixed work, the round latency
// median and 90th percentile over every repetition's rounds (in µs), and
// the median set-up time.
func (o *outcome) setEndToEnd(workS float64, roundsUS []float64, setupS float64) {
	o.set("work_s", "s", workS)
	o.set("round_p50_us", "us", percentile(roundsUS, 0.5))
	o.set("round_p90_us", "us", percentile(roundsUS, 0.9))
	o.set("setup_s", "s", setupS)
}

// note prints a human-readable figure on standard error; the JSON line on
// standard output stays the only machine-read output.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
