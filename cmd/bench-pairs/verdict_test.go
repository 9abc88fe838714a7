package main

import (
	"math"
	"testing"
)

var (
	rate = metricSpec{Name: "tasklets_per_s", Better: "higher", Bound: 0.25}
	lat  = metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.25}
)

func TestQuartilesInterpolate(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2}) // sorted 1 2 3 4
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Fatalf("one sample: %v %v %v", q1, med, q3)
	}
	if _, med, _ := quartiles(nil); !math.IsNaN(med) {
		t.Fatalf("no samples: median %v, want NaN", med)
	}
}

// TestJudgeClaimsAGain: nine wins in ten and a median gap wider than the
// base's IQR is a claim, in either direction of "better".
func TestJudgeClaimsAGain(t *testing.T) {
	base := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	change := []float64{150, 151, 152, 153, 154, 155, 156, 157, 158, 100} // last pair loses
	r := judge(rate, base, change)
	if r.Wins != 9 || r.Losses != 1 || r.Verdict != verdictClaimed {
		t.Fatalf("row = %+v, want 9/1 claimed", r)
	}
	if r.Ratio != r.Change[1]/r.Base[1] || r.Base[1] != 104.5 {
		t.Fatalf("ratio %v of medians %v / %v", r.Ratio, r.Change[1], r.Base[1])
	}
	// The same numbers as latencies: the change is worse by ~47 %.
	if r := judge(lat, base, change); r.Verdict != verdictRegressed || r.Wins != 1 || r.Losses != 9 {
		t.Fatalf("as latency: %+v, want 1/9 regressed", r)
	}
	// Halved latencies win every pair.
	half := make([]float64, len(base))
	for i, v := range base {
		half[i] = v / 2
	}
	if r := judge(lat, base, half); r.Verdict != verdictClaimed || r.Wins != 10 {
		t.Fatalf("halved latency: %+v, want 10/0 claimed", r)
	}
}

// TestJudgeNeedsNineInTen: eight wins in ten is no claim, however large
// the gap; ties count for neither side.
func TestJudgeNeedsNineInTen(t *testing.T) {
	base := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	change := []float64{120, 120, 120, 120, 120, 120, 120, 120, 100, 90}
	r := judge(rate, base, change)
	if r.Wins != 8 || r.Losses != 1 || r.Verdict != verdictHeld {
		t.Fatalf("row = %+v, want 8/1 held", r)
	}
}

// TestJudgeNeedsGapPastBaseIQR: ten wins whose median gap is inside the
// base's own IQR is no claim.
func TestJudgeNeedsGapPastBaseIQR(t *testing.T) {
	base := []float64{90, 95, 100, 105, 110, 90, 95, 100, 105, 110} // IQR 10
	change := make([]float64, len(base))
	for i, v := range base {
		change[i] = v + 5 // gap 5 < 10
	}
	r := judge(rate, base, change)
	if r.Wins != 10 || r.Verdict != verdictHeld {
		t.Fatalf("row = %+v, want 10/0 held", r)
	}
	for i, v := range base {
		change[i] = v + 11
	}
	if r := judge(rate, base, change); r.Verdict != verdictClaimed {
		t.Fatalf("gap 11 past IQR 10: %+v, want claimed", r)
	}
}

// TestJudgeUnresolvedOnWideSpread: runs that spread wider than the bound on
// either side cannot be told apart — unless every change run beats every
// base run.
func TestJudgeUnresolvedOnWideSpread(t *testing.T) {
	base := []float64{50, 100, 150, 50, 100, 150, 50, 100, 150, 100} // IQR/median 1
	steady := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	if r := judge(rate, base, steady); r.Verdict != verdictUnresolved {
		t.Fatalf("wide base: %+v, want unresolved", r)
	}
	if r := judge(rate, steady, base); r.Verdict != verdictUnresolved {
		t.Fatalf("wide change: %+v, want unresolved", r)
	}
	above := make([]float64, len(base))
	for i, v := range base {
		above[i] = v + 200 // min 250 > base max 150
	}
	if r := judge(rate, base, above); r.Verdict != verdictClaimed {
		t.Fatalf("every change run better: %+v, want claimed", r)
	}
	// A metric without a bound (per-layer) is never unresolved or regressed.
	noBound := metricSpec{Name: "broker.sched_passes", Better: "lower"}
	if r := judge(noBound, steady, base); r.Verdict != verdictHeld {
		t.Fatalf("no bound: %+v, want held", r)
	}
}

// TestJudgeRegressedPastBound: a median worse by more than the bound is a
// regression; inside it, held.
func TestJudgeRegressedPastBound(t *testing.T) {
	base := []float64{100, 100, 100, 100}
	if r := judge(lat, base, []float64{124, 124, 124, 124}); r.Verdict != verdictHeld {
		t.Fatalf("24 %% worse: %+v, want held", r)
	}
	if r := judge(lat, base, []float64{126, 126, 126, 126}); r.Verdict != verdictRegressed {
		t.Fatalf("26 %% worse: %+v, want regressed", r)
	}
	if r := judge(rate, base, []float64{74, 74, 74, 74}); r.Verdict != verdictRegressed {
		t.Fatalf("rate 26 %% lower: %+v, want regressed", r)
	}
	if r := judge(rate, nil, nil); r.Verdict != verdictUnresolved {
		t.Fatalf("no pairs: %+v, want unresolved", r)
	}
}
