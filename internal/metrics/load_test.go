package metrics

import (
	"math"
	"testing"
)

func TestImbalance(t *testing.T) {
	cases := []struct {
		name  string
		loads []int64
		want  float64
	}{
		{"empty", nil, 0},
		// All-zero is perfectly balanced, not pathological: the ratio
		// must stay ≥ 1 wherever it is defined, so an idle period never
		// reads as better than a balanced one.
		{"idle", []int64{0, 0, 0}, 1},
		{"idle-single", []int64{0}, 1},
		{"balanced", []int64{5, 5, 5, 5}, 1},
		{"single", []int64{7}, 1},
		{"one-does-all", []int64{12, 0, 0, 0}, 4},
		{"mild-skew", []int64{6, 2}, 1.5},
	}
	for _, tc := range cases {
		if got := Imbalance(tc.loads); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Imbalance(%v) = %g, want %g", tc.name, tc.loads, got, tc.want)
		}
	}
}

func TestSummarizeLoads(t *testing.T) {
	s := SummarizeLoads([][]int64{
		{5, 5},        // imbalance 1
		{0, 0},        // idle: excluded
		{6, 2},        // imbalance 1.5
		{12, 0, 0, 0}, // imbalance 4
	})
	if s.Periods != 3 {
		t.Fatalf("Periods = %d, want 3 (the idle row is excluded)", s.Periods)
	}
	if s.Max != 4 {
		t.Fatalf("Max = %g, want 4", s.Max)
	}
	if want := (1 + 1.5 + 4) / 3; math.Abs(s.Mean-want) > 1e-12 {
		t.Fatalf("Mean = %g, want %g", s.Mean, want)
	}
	if z := SummarizeLoads(nil); z != (LoadSummary{}) {
		t.Fatalf("SummarizeLoads(nil) = %+v, want zero", z)
	}
}
