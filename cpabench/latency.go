package main

import (
	"math"
	"slices"
	"time"
)

// sample is one successful open-loop request.
type sample struct {
	lat time.Duration // from when it was due to its reply
	set bool
}

// The latency metrics keep every reply. Each round's open-loop window
// yields its own p50 and p99 over all of its GETs (and SETs), so a stall
// in the daemon — garbage collection, an auto-rebalance tick, a reclaim
// burst — is charged to every request it delays. Like every repeated
// quantity, the per-round quantiles are summarised by bestTenth over
// the run's rounds, so a burst of contention from outside the benchmark
// spoils a round, not the run, while a stall that recurs in nearly every
// round stays in. The run-wide p99, p99.9 and maximum are printed beside
// them, ungated, with the median per-round quantiles.

// latencySummary is the gated latencies, in ns, the median per-round
// quantiles, and the median sample counts per round.
type latencySummary struct {
	get50, get99, set50, set99 float64
	medGet99, medSet99         float64
	gets, sets                 float64
	get99s, set99s             []float64 // each round's p99
}

func roundLatency(rounds [][]sample) latencySummary {
	var g50, g99, s50, s99, ng, ns []float64
	for _, rd := range rounds {
		var gets, sets []float64
		for _, s := range rd {
			if s.set {
				sets = append(sets, float64(s.lat))
			} else {
				gets = append(gets, float64(s.lat))
			}
		}
		ng, ns = append(ng, float64(len(gets))), append(ns, float64(len(sets)))
		if len(gets) > 0 {
			g50, g99 = append(g50, rank(gets, 0.50)), append(g99, rank(gets, 0.99))
		}
		if len(sets) > 0 {
			s50, s99 = append(s50, rank(sets, 0.50)), append(s99, rank(sets, 0.99))
		}
	}
	return latencySummary{
		get50: bestTenth(g50, true), get99: bestTenth(g99, true),
		set50: bestTenth(s50, true), set99: bestTenth(s99, true),
		medGet99: median(g99), medSet99: median(s99),
		gets: median(ng), sets: median(ns), get99s: g99, set99s: s99,
	}
}

// median is the middle of xs (the mean of the two middle values for an
// even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// rank returns the nearest-rank q-quantile of xs (sorting xs), or NaN
// when xs is empty.
func rank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	return xs[max(0, int(math.Ceil(q*float64(len(xs))))-1)]
}

// bestTenth summarises repeated measurements of one quantity taken on a
// shared host, where contention from outside the benchmark slows a
// repetition down by up to half and never speeds one up: it returns the
// value a tenth of the way in from the good end (the best of fewer than
// ten) — low for costs and latencies (lowerBetter), high for rates —
// or NaN when xs is empty.
func bestTenth(xs []float64, lowerBetter bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s) / 10
	if lowerBetter {
		return s[k]
	}
	return s[len(s)-1-k]
}
