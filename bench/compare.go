package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// exactAtSameSeed reports whether a metric is a simulated statistic (or
// the share of operations that passed): a pure function of the seed, so
// two result files made at one seed compare by equality, not by bound.
func exactAtSameSeed(name string) bool {
	return strings.HasPrefix(name, "sim_") || name == "ok_share"
}

// verdict judges sample b against a. Repeats at one simulation seed
// show the run-to-run spread; a metric whose spread is wider than the
// bound cannot resolve a change of that size, so it is unresolved
// unless, seed by seed, every sample of one file beats every sample of
// the other.
func verdict(m specMetric, a, b sample, exact bool) string {
	if m.Better == "higher" {
		// Mirror both so that larger is worse from here on.
		a, b = mirror(a), mirror(b)
	}
	if exact {
		switch {
		case b.Value > a.Value:
			return "worse"
		case b.Value < a.Value:
			return "better"
		}
		return "same"
	}
	bound := *m.Bound
	if max(repeatSpread(a), repeatSpread(b)) > bound {
		switch {
		case apart(a, b):
			return "worse"
		case apart(b, a):
			return "better"
		}
		return "unresolved"
	}
	delta := 0.0
	if a.Value != 0 {
		delta = (b.Value - a.Value) / math.Abs(a.Value)
	}
	switch {
	case delta > bound:
		return "worse"
	case delta < -bound:
		return "better"
	}
	return "same"
}

func mirror(s sample) sample {
	out := sample{Value: -s.Value, Unit: s.Unit}
	for _, vals := range s.Samples {
		neg := make([]float64, len(vals))
		for i, v := range vals {
			neg[i] = -v
		}
		out.Samples = append(out.Samples, neg)
	}
	return out
}

// repeatSpread is the widest (max - min) / median among the seeds that
// were run more than once.
func repeatSpread(s sample) float64 {
	spread := 0.0
	for _, vals := range s.Samples {
		if med := median(vals); len(vals) > 1 && med != 0 {
			spread = max(spread, (slices.Max(vals)-slices.Min(vals))/math.Abs(med))
		}
	}
	return spread
}

// apart reports whether, seed by seed, every sample of hi lies above
// every sample of lo.
func apart(lo, hi sample) bool {
	if len(lo.Samples) != len(hi.Samples) || len(lo.Samples) == 0 {
		return false
	}
	for j := range lo.Samples {
		if len(lo.Samples[j]) == 0 || len(hi.Samples[j]) == 0 || slices.Min(hi.Samples[j]) <= slices.Max(lo.Samples[j]) {
			return false
		}
	}
	return true
}

// compareFiles prints one row per (metric, workload) of two result
// files and returns 1 when any row is worse, 2 when the files cannot be
// compared.
func compareFiles(sp *spec, pathA, pathB string, w io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		var err error
		if files[i], err = readResults(path); err != nil {
			fmt.Fprintln(w, "bench:", err)
			return 2
		}
	}
	return compareResults(sp, files[0], files[1], w)
}

func compareResults(sp *spec, a, b *resultFile, w io.Writer) int {
	if a.Trace || b.Trace {
		fmt.Fprintln(w, "bench: -compare judges timed results; per-layer metrics have no bounds")
		return 2
	}
	sameSeed := a.Seed == b.Seed
	fmt.Fprintf(w, "a: seed %d commit %s nproc %d %s\nb: seed %d commit %s nproc %d %s\n",
		a.Seed, a.Host.Commit, a.Host.NProc, a.Host.CPUModel, b.Seed, b.Host.Commit, b.Host.NProc, b.Host.CPUModel)
	if a.Host.Degraded || b.Host.Degraded {
		fmt.Fprintln(w, "note: a degraded host (fewer than two CPUs) made one of these files")
	}
	code := 0
	for _, wl := range sp.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			v := verdict(m, sa, sb, sameSeed && exactAtSameSeed(m.Name))
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-20s %-10s %14.6g -> %-14.6g %s\n", wl.Name, m.Name, v, sa.Value, sb.Value, m.Unit)
		}
	}
	return code
}
