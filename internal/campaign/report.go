package campaign

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"mnp/internal/stats"
)

// Report renders the campaign comparison: one row per cell, then
// per-(protocol, topology, fault plan) aggregates across seeds. The
// output is a deterministic function of the plan and results — results
// are sorted by key and every number comes from a deterministic
// simulation — so two runs of the same plan produce identical bytes.
func Report(p *Plan, results []CellResult) string {
	sorted := append([]CellResult(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })

	var b strings.Builder
	faultAxis := len(p.FaultPlans) > 1
	mobAxis := len(p.Mobilities) > 0
	fmt.Fprintf(&b, "campaign %s: %d cells = %d protocols x %d seeds x %d topologies",
		p.Name, len(sorted), len(p.Protocols), len(p.Seeds), len(p.Topologies))
	if mobAxis {
		fmt.Fprintf(&b, " x %d mobilities", len(p.Mobilities))
	}
	if faultAxis {
		fmt.Fprintf(&b, " x %d fault plans", len(p.FaultPlans))
	}
	b.WriteString("\n\n")

	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "cell\tnodes\tdone\ttime\ttx\trx\tcoll\tradio-on\tenergy(nAh)")
	for _, r := range sorted {
		if r.Err != "" {
			fmt.Fprintf(tw, "%s\t%d\t%d/%d\tERROR\t\t\t\t\t%s\n", r.Key, r.Nodes, r.Covered, r.Nodes, r.Err)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d/%d\t%v\t%d\t%d\t%d\t%v\t%.1f\n",
			r.Key, r.Nodes, r.Covered, r.Nodes, r.Time(),
			r.Tx, r.Rx, r.Collisions,
			(time.Duration(r.RadioOnMS) * time.Millisecond).Round(time.Second),
			r.EnergyNAh)
	}
	tw.Flush()

	b.WriteString("\naggregates over seeds:\n")
	tw = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	hdr := []string{"protocol", "topology"}
	if mobAxis {
		hdr = append(hdr, "mobility")
	}
	if faultAxis {
		hdr = append(hdr, "faults")
	}
	hdr = append(hdr, "cells", "done", "time mean", "p50", "p90", "tx mean", "energy mean")
	fmt.Fprintln(tw, strings.Join(hdr, "\t"))
	for _, g := range groupCells(sorted) {
		times := make([]float64, 0, len(g.cells))
		txs := make([]float64, 0, len(g.cells))
		energies := make([]float64, 0, len(g.cells))
		done := 0
		for _, r := range g.cells {
			if r.Err != "" {
				continue
			}
			times = append(times, float64(r.TimeMS))
			txs = append(txs, float64(r.Tx))
			energies = append(energies, r.EnergyNAh)
			if r.Completed {
				done++
			}
		}
		cols := []string{g.protocol, g.topology}
		if mobAxis {
			cols = append(cols, g.mobility)
		}
		if faultAxis {
			cols = append(cols, faultLabel(g.faults))
		}
		if len(times) == 0 {
			fmt.Fprintf(tw, "%s\t%d\t%d\tall failed\t\t\t\t\n", strings.Join(cols, "\t"), len(g.cells), done)
			continue
		}
		p50, _ := stats.Percentile(times, 50)
		p90, _ := stats.Percentile(times, 90)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%v\t%v\t%.1f\t%.1f\n",
			strings.Join(cols, "\t"), len(g.cells), done,
			msDuration(stats.Mean(times)), msDuration(p50), msDuration(p90),
			stats.Mean(txs), stats.Mean(energies))
	}
	tw.Flush()
	return b.String()
}

// group is one (protocol, topology, mobility, faults) aggregate bucket.
type group struct {
	protocol, topology, mobility, faults string
	cells                                []CellResult
}

// groupCells buckets results by everything but the seed, ordered by
// bucket key.
func groupCells(sorted []CellResult) []group {
	byKey := map[string]*group{}
	var order []string
	for _, r := range sorted {
		key := r.Protocol + "\x00" + r.Topology + "\x00" + r.Mobility + "\x00" + r.Faults
		g, ok := byKey[key]
		if !ok {
			g = &group{protocol: r.Protocol, topology: r.Topology, mobility: r.Mobility, faults: r.Faults}
			byKey[key] = g
			order = append(order, key)
		}
		g.cells = append(g.cells, r)
	}
	sort.Strings(order)
	out := make([]group, len(order))
	for i, key := range order {
		out[i] = *byKey[key]
	}
	return out
}

func faultLabel(spec string) string {
	if spec == "" {
		return "none"
	}
	return spec
}

// msDuration renders a float millisecond quantity as a duration,
// rounded to the millisecond so float noise cannot leak into report
// bytes.
func msDuration(ms float64) time.Duration {
	return (time.Duration(ms * float64(time.Millisecond))).Round(time.Millisecond)
}
