package main

import (
	"math"
	"slices"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// relative worsening the benchmark tolerates; zero (per-layer metrics)
// means the metric has none, so it can be claimed but not judged worse.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// quartiles returns the 25th, 50th and 75th percentiles of xs, linearly
// interpolated between order statistics (the same rule as NumPy's default).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// row is one workload × metric line of the comparison.
type row struct {
	Base, Change [3]float64 // quartiles: q1, median, q3
	Ratio        float64    // change median / base median
	Wins, Losses int        // pairs the change read better / worse; ties count for neither
	Pairs        int
	Verdict      string
}

// Verdicts, in the order judge checks them.
const (
	// unresolved: a side is missing, or its runs spread (IQR / median)
	// wider than the metric's bound, and not every change run beats every
	// base run, so the pairs cannot tell the two apart at that bound.
	verdictUnresolved = "unresolved"
	// regressed: the change's median is worse than the base's by more than
	// the bound.
	verdictRegressed = "regressed"
	// claimed: the change wins at least nine pairs in ten and its median is
	// better than the base's by more than the base's IQR.
	verdictClaimed = "claimed"
	// held: none of the above — inside the bound, no gain shown.
	verdictHeld = "held"
)

// judge compares paired samples of one metric: base[i] and change[i] come
// from the i-th pair. Both slices have the same length.
func judge(spec metricSpec, base, change []float64) row {
	r := row{Pairs: len(base)}
	r.Base[0], r.Base[1], r.Base[2] = quartiles(base)
	r.Change[0], r.Change[1], r.Change[2] = quartiles(change)
	r.Ratio = r.Change[1] / r.Base[1]
	better := func(a, b float64) bool { // a reads better than b
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range base {
		switch {
		case better(change[i], base[i]):
			r.Wins++
		case better(base[i], change[i]):
			r.Losses++
		}
	}
	// Every change run beats every base run: a wide spread cannot hide
	// that.
	allBetter := len(base) > 0
	for _, c := range change {
		for _, a := range base {
			allBetter = allBetter && better(c, a)
		}
	}
	iqr := r.Base[2] - r.Base[0]
	baseSpread := iqr / r.Base[1]
	changeSpread := (r.Change[2] - r.Change[0]) / r.Change[1]
	worsening := (r.Change[1] - r.Base[1]) / r.Base[1]
	if spec.Better == "higher" {
		worsening = -worsening
	}

	switch {
	case len(base) == 0 || math.IsNaN(r.Ratio) || math.IsInf(r.Ratio, 0):
		r.Verdict = verdictUnresolved
	case spec.Bound > 0 && !(baseSpread <= spec.Bound && changeSpread <= spec.Bound) && !allBetter:
		r.Verdict = verdictUnresolved // also catches a NaN spread
	case spec.Bound > 0 && worsening > spec.Bound:
		r.Verdict = verdictRegressed
	case 10*r.Wins >= 9*r.Pairs && better(r.Change[1], r.Base[1]) && math.Abs(r.Change[1]-r.Base[1]) > iqr:
		r.Verdict = verdictClaimed
	default:
		r.Verdict = verdictHeld
	}
	return r
}
