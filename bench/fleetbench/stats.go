package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p % of the samples at or below
// it.  Nearest rank always returns a value that was measured, so a
// bimodal sample cannot produce a median on the gap between its modes.
// xs is not modified; an empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// phaseStats are the three timing metrics of a timed phase.
type phaseStats struct {
	P50ms   float64 // calm-quartile over rounds of each round's median op
	P90ms   float64 // calm-quartile over rounds of each round's p90 op
	OpsPerS float64 // ops per round ÷ calm-quartile round wall time
}

// calmQuartile is the across-rounds statistic of noise rule 2: the
// nearest-rank lower quartile.  Interference on a shared machine only
// ever slows a round down, and on the reference VM it comes in bursts of
// seconds that can cover half the rounds of a phase, so the quartile of
// rounds least touched by it estimates the program's own cost better
// than the median does; a change to the program moves every round and
// therefore moves the quartile by as much.
func calmQuartile(xs []float64) float64 { return percentile(xs, 25) }

// summarize reduces a phase of rounds to its timing metrics (noise rule
// 2).  ops[r] holds the latencies of round r's ops and walls[r] the
// round's wall time including its boundary maintenance.  Each round is
// reduced on its own — median, p90, wall — and the rounds are then
// reduced by calmQuartile, so a neighbour's burst spoils a few rounds,
// not the metric, where one long mean would carry it.
func summarize(ops [][]time.Duration, walls []time.Duration) phaseStats {
	var p50s, p90s, wallS []float64
	perRound := 0
	for r, round := range ops {
		ms := make([]float64, len(round))
		for i, d := range round {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		p50s = append(p50s, median(ms))
		p90s = append(p90s, percentile(ms, 90))
		wallS = append(wallS, walls[r].Seconds())
		perRound = len(round)
	}
	st := phaseStats{P50ms: calmQuartile(p50s), P90ms: calmQuartile(p90s)}
	if w := calmQuartile(wallS); w > 0 {
		st.OpsPerS = float64(perRound) / w
	}
	return st
}

// interval is a half-open time span in nanoseconds since the tracer's
// origin.
type interval struct{ start, end int64 }

// unionLen returns the total length of the union of ivs clipped to
// [lo, hi): the time during which at least one of them was open.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curEnd int64
	curEnd = math.MinInt64
	for _, iv := range clipped {
		if iv.start > curEnd {
			total += iv.end - iv.start
			curEnd = iv.end
		} else if iv.end > curEnd {
			total += iv.end - curEnd
			curEnd = iv.end
		}
	}
	return total
}

// peakOverlap returns the largest number of intervals open at once.
func peakOverlap(ivs []interval) int {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	peak, open := 0, 0
	for _, e := range edges {
		open += e.delta
		if open > peak {
			peak = open
		}
	}
	return peak
}
