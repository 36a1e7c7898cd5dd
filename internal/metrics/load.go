package metrics

// Load-balance statistics for the tiled engine: the per-executor load
// vectors the engine reports each period are summarized here into the
// max/mean imbalance figures the experiment reports and benchmarks
// record.

// Imbalance returns the max/mean ratio of a per-shard load vector: 1
// for a perfectly balanced period, k when the busiest executor carries
// k times the mean. An idle (all-zero) vector is perfectly balanced by
// definition and yields 1, not 0 — max/mean is a ratio ≥ 1 whenever it
// is defined, and an artificial 0 would read as better than perfect.
// Only an empty vector (no executors) returns 0.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var total, max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(loads))
	return float64(max) / mean
}

// LoadSummary aggregates per-period imbalance over a whole run.
type LoadSummary struct {
	Periods int     // report periods with any load
	Max     float64 // worst single-period imbalance
	Mean    float64 // mean imbalance across loaded periods
}

// SummarizeLoads folds a run's per-period per-shard load vectors into
// one summary. Idle periods (all-zero vectors) are excluded — an empty
// deployment tail would otherwise dilute the skew a reader cares
// about.
func SummarizeLoads(periods [][]int64) LoadSummary {
	var s LoadSummary
	var sum float64
	for _, loads := range periods {
		var total int64
		for _, l := range loads {
			total += l
		}
		if total == 0 {
			continue // idle or empty: no load to summarize
		}
		im := Imbalance(loads)
		s.Periods++
		sum += im
		if im > s.Max {
			s.Max = im
		}
	}
	if s.Periods > 0 {
		s.Mean = sum / float64(s.Periods)
	}
	return s
}
