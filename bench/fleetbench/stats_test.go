package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Nearest rank never invents a value between two modes.
	bimodal := []float64{30, 30, 30, 100, 100, 100}
	if got := median(bimodal); got != 30 {
		t.Errorf("median of a bimodal sample = %v, want a measured value (30)", got)
	}
}

// synthetic builds a phase of 20 rounds × 16 ops of about 50 ms with a
// deterministic ±3 % jitter; slow scales whole rounds, as a neighbour's
// burst on a shared machine does, and scale every op.
func synthetic(slow func(round int) float64, scale float64) ([][]time.Duration, []time.Duration) {
	const rounds, k = 20, 16
	ops := make([][]time.Duration, rounds)
	walls := make([]time.Duration, rounds)
	for r := range ops {
		ops[r] = make([]time.Duration, k)
		for i := range ops[r] {
			jitter := 1 + 0.03*math.Sin(float64(r*k+i)*2.399963)
			d := time.Duration(50e6 * jitter * slow(r) * scale)
			ops[r][i] = d
			walls[r] += d
		}
		walls[r] += time.Duration(2e6 * slow(r) * scale) // boundary maintenance
	}
	return ops, walls
}

func moved(base, now float64) float64 { return math.Abs(now-base) / base }

func TestSummarizeShrugsOffSlowRounds(t *testing.T) {
	calm := func(int) float64 { return 1 }
	base := summarize(synthetic(calm, 1))
	// A fifth of the rounds run three times slower.
	noisy := summarize(synthetic(func(r int) float64 {
		if r%5 == 2 {
			return 3
		}
		return 1
	}, 1))
	for _, m := range []struct {
		name      string
		base, now float64
	}{
		{"op_p50_ms", base.P50ms, noisy.P50ms},
		{"op_p90_ms", base.P90ms, noisy.P90ms},
		{"ops_per_s", base.OpsPerS, noisy.OpsPerS},
	} {
		if d := moved(m.base, m.now); d >= 0.02 {
			t.Errorf("%s moved %.1f %% when 20 %% of the rounds ran 3× slow (%.3f → %.3f); want < 2 %%", m.name, 100*d, m.base, m.now)
		}
	}
}

func TestSummarizeSeesUniformSlowdown(t *testing.T) {
	calm := func(int) float64 { return 1 }
	base := summarize(synthetic(calm, 1))
	slower := summarize(synthetic(calm, 1.1))
	for _, m := range []struct {
		name  string
		ratio float64
	}{
		{"op_p50_ms", slower.P50ms / base.P50ms},
		{"op_p90_ms", slower.P90ms / base.P90ms},
		{"ops_per_s", base.OpsPerS / slower.OpsPerS},
	} {
		if math.Abs(m.ratio-1.1) > 0.002 {
			t.Errorf("%s moved by ×%.4f under a uniform 10 %% slowdown; want ×1.1", m.name, m.ratio)
		}
	}
}

func TestIntervalArithmetic(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {22, 25}}
	if got := unionLen(ivs, 0, 100); got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
	if got := unionLen(ivs, 8, 24); got != 11 {
		t.Errorf("clipped unionLen = %d, want 11", got)
	}
	if got := peakOverlap(ivs); got != 2 {
		t.Errorf("peakOverlap = %d, want 2", got)
	}
	if got := peakOverlap([]interval{{0, 5}, {5, 9}}); got != 1 {
		t.Errorf("back-to-back intervals overlap %d deep, want 1", got)
	}
}
