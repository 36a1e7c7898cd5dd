package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"mnp/internal/core"
	"mnp/internal/energy"
	"mnp/internal/image"
	"mnp/internal/packet"
	"mnp/internal/radio"
	"mnp/internal/stats"
)

// Spec reproduces one of the paper's tables or figures.
type Spec struct {
	// ID is the experiment identifier from DESIGN.md (T1, F5…F13,
	// EDEL, A1…A4).
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the workload and returns its report.
	Run func(seed int64) (Report, error)
}

// Report is one spec's result: the rendered text and the plotted
// series behind it, both drawn from the same runs.
type Report struct {
	Text   string
	Series []Series
}

// Series is the raw data of one plotted figure: a named table of
// numbers, written as <Name>.csv for plotting. Decimals[j] is the
// number of digits after the point in column j.
type Series struct {
	Name     string
	Header   []string
	Decimals []int
	Rows     [][]float64
}

// WriteCSV writes the header and one record per row.
func (s Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(s.Header); err != nil {
		return err
	}
	rec := make([]string, len(s.Header))
	for _, row := range s.Rows {
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'f', s.Decimals[j], 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AllSpecs returns every experiment in paper order.
func AllSpecs() []Spec {
	return []Spec{
		{ID: "T1", Title: "Table 1: power required by various Mica operations", Run: runT1},
		{ID: "F5", Title: "Figure 5: indoor 3x5 grid, power levels 3 and 4", Run: runF5},
		{ID: "F6", Title: "Figure 6: outdoor 5x5 grid, full and low power", Run: runF6},
		{ID: "F7", Title: "Figure 7: outdoor 2x10 grid, full and low power", Run: runF7},
		{ID: "F8", Title: "Figure 8: active radio time in a 20x20 network", Run: runF8},
		{ID: "F9", Title: "Figure 9: active radio time without initial idle listening", Run: runF9},
		{ID: "F10", Title: "Figure 10: completion time and ART vs program size", Run: runF10},
		{ID: "F11", Title: "Figure 11: transmission and reception distributions", Run: runF11},
		{ID: "F12", Title: "Figure 12: message types per one-minute window", Run: runF12},
		{ID: "F13", Title: "Figure 13: code propagation progress", Run: runF13},
		{ID: "EDEL", Title: "Section 5: MNP vs Deluge comparison", Run: runEDEL},
		{ID: "A1", Title: "Ablation: sender selection disabled", Run: runA1},
		{ID: "A2", Title: "Ablation: sleeping disabled", Run: runA2},
		{ID: "A3", Title: "Ablation: query/update repair phase", Run: runA3},
		{ID: "A4", Title: "Extension (section 6): battery-aware sender selection", Run: runA4},
		{ID: "A5", Title: "Extension (section 4.2): S-MAC-style idle duty cycle", Run: runA5},
		{ID: "A6", Title: "Scaling claim (section 6): 4x network with central base", Run: runA6},
	}
}

// ByID finds a spec by its identifier.
func ByID(id string) (Spec, bool) {
	for _, s := range AllSpecs() {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
	}
	return Spec{}, false
}

// --- Table 1 ---

func runT1(int64) (Report, error) {
	c := energy.Table1
	var b strings.Builder
	b.WriteString("Table 1: power required by various Mica operations (nAh)\n")
	fmt.Fprintf(&b, "  %-34s %8.3f\n", "Transmitting a packet", c.TransmitPacket)
	fmt.Fprintf(&b, "  %-34s %8.3f\n", "Receiving a packet", c.ReceivePacket)
	fmt.Fprintf(&b, "  %-34s %8.3f\n", "Idle listening for 1 millisecond", c.IdleListenMs)
	fmt.Fprintf(&b, "  %-34s %8.3f\n", "EEPROM Read 16 Data bytes", c.EEPROMRead16B)
	fmt.Fprintf(&b, "  %-34s %8.3f\n", "EEPROM Write 16 Data bytes", c.EEPROMWrite16B)
	idlePerSec := c.IdleListenMs * 1000
	fmt.Fprintf(&b, "  (1 s of idle listening = %.0f nAh = %.0f packet transmissions)\n",
		idlePerSec, idlePerSec/c.TransmitPacket)
	return Report{Text: b.String()}, nil
}

// --- Figures 5–7: testbed sender-selection experiments ---

// testbedPackets is the testbed program size: 100 packets (2.2 KB).
const testbedPackets = 100

func runTestbed(name string, rows, cols int, powers []int, seed int64) (Report, error) {
	var b strings.Builder
	for _, power := range powers {
		res, err := Run(Setup{
			Name:         fmt.Sprintf("%s power %d", name, power),
			Rows:         rows,
			Cols:         cols,
			Spacing:      15,
			ImagePackets: testbedPackets,
			Power:        power,
			Seed:         seed,
			Limit:        4 * time.Hour,
		})
		if err != nil {
			return Report{}, err
		}
		if err := res.VerifyImages(); err != nil {
			return Report{}, fmt.Errorf("%s: %w", res.Setup.Name, err)
		}
		b.WriteString(runSummary(res))
		b.WriteString(renderParentMap(res))
		b.WriteByte('\n')
	}
	return Report{Text: b.String()}, nil
}

func runF5(seed int64) (Report, error) {
	return runTestbed("F5 indoor 3x5", 3, 5,
		[]int{radio.PowerIndoorHigh, radio.PowerIndoorLow}, seed)
}

func runF6(seed int64) (Report, error) {
	return runTestbed("F6 outdoor 5x5", 5, 5,
		[]int{radio.PowerFull, radio.PowerOutdoorLow}, seed)
}

func runF7(seed int64) (Report, error) {
	return runTestbed("F7 outdoor 2x10", 2, 10,
		[]int{radio.PowerFull, radio.PowerOutdoorLow}, seed)
}

// --- Figures 8–12: the 20x20 simulation ---

// sim20x20 runs the paper's main simulated workload: a 20×20 grid at
// 10 ft spacing disseminating 5 segments (640 packets, 14.1 KB).
func sim20x20(name string, seed int64, segments int) (*Result, error) {
	res, err := Run(Setup{
		Name:         name,
		Rows:         20,
		Cols:         20,
		Spacing:      10,
		ImagePackets: segments * image.DefaultSegmentPackets,
		Seed:         seed,
		Limit:        12 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	if !res.Completed {
		return nil, fmt.Errorf("%s: dissemination incomplete (%d/%d)",
			name, res.Network.CompletedCount(), len(res.Network.Nodes))
	}
	return res, nil
}

func runF8(seed int64) (Report, error) {
	res, err := sim20x20("F8 20x20 ART", seed, 5)
	if err != nil {
		return Report{}, err
	}
	ct := res.CompletionTime
	art := func(id packet.NodeID) time.Duration {
		return res.Collector.ActiveRadioTime(id, 0, ct)
	}
	var b strings.Builder
	b.WriteString(runSummary(res))
	fmt.Fprintf(&b, "average active radio time: %s (%.0f%% of completion time)\n",
		fmtDur(res.Collector.MeanActiveRadioTime(ct)),
		100*res.Collector.MeanActiveRadioTime(ct).Seconds()/ct.Seconds())
	b.WriteString(renderRingSummary(res, "active radio time", art))
	b.WriteString(renderDurationGrid(res, "active radio time by location", art))
	// The plotted series carries Figure 9's column too: the same run
	// with each node's clock started at its first advertisement.
	series := Series{
		Name:     "f8_art",
		Header:   []string{"node", "row", "col", "art_s", "art_no_idle_s"},
		Decimals: []int{0, 0, 0, 1, 1},
	}
	for i := 0; i < res.Layout.N(); i++ {
		id := packet.NodeID(i)
		r, c, _ := res.Layout.GridCoord(id)
		from, ok := res.Collector.FirstAdvertisementHeard(id)
		if !ok {
			from = 0
		}
		series.Rows = append(series.Rows, []float64{float64(i), float64(r), float64(c),
			art(id).Seconds(), res.Collector.ActiveRadioTime(id, from, ct).Seconds()})
	}
	return Report{Text: b.String(), Series: []Series{series}}, nil
}

func runF9(seed int64) (Report, error) {
	res, err := sim20x20("F9 20x20 ART w/o initial idle", seed, 5)
	if err != nil {
		return Report{}, err
	}
	ct := res.CompletionTime
	art := func(id packet.NodeID) time.Duration {
		from, ok := res.Collector.FirstAdvertisementHeard(id)
		if !ok {
			from = 0
		}
		return res.Collector.ActiveRadioTime(id, from, ct)
	}
	var b strings.Builder
	b.WriteString(runSummary(res))
	fmt.Fprintf(&b, "average active radio time without initial idle listening: %s\n",
		fmtDur(res.Collector.MeanActiveRadioTimeAfterFirstAdv(ct)))
	b.WriteString(renderRingSummary(res, "ART without initial idle", art))
	// The paper's point: this distribution is much flatter than Fig 8.
	minV, maxV := time.Duration(math.MaxInt64), time.Duration(0)
	for i := 0; i < res.Layout.N(); i++ {
		v := art(packet.NodeID(i))
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	fmt.Fprintf(&b, "spread: min %s, max %s (max/min %.1fx)\n", fmtDur(minV), fmtDur(maxV),
		maxV.Seconds()/math.Max(minV.Seconds(), 1))
	return Report{Text: b.String()}, nil
}

func runF10(seed int64) (Report, error) {
	var b strings.Builder
	b.WriteString("F10: 20x20 grid, program size 1..10 segments\n")
	b.WriteString("segments    KB   completion        ART   ART w/o initial idle\n")
	series := Series{
		Name:     "f10_sweep",
		Header:   []string{"segments", "kb", "completion_s", "art_s", "art_no_idle_s"},
		Decimals: []int{0, 1, 1, 1, 1},
	}
	var xs, ys []float64
	for segs := 1; segs <= 10; segs++ {
		res, err := sim20x20(fmt.Sprintf("F10 %d segments", segs), seed+int64(segs), segs)
		if err != nil {
			return Report{}, err
		}
		ct := res.CompletionTime
		kb := float64(res.Image.Size()) / 1024
		art := res.Collector.MeanActiveRadioTime(ct)
		artNoIdle := res.Collector.MeanActiveRadioTimeAfterFirstAdv(ct)
		fmt.Fprintf(&b, "%8d %5.1f %12s %10s %10s\n",
			segs, kb, fmtDur(ct), fmtDur(art), fmtDur(artNoIdle))
		series.Rows = append(series.Rows, []float64{float64(segs), kb,
			ct.Seconds(), art.Seconds(), artNoIdle.Seconds()})
		xs = append(xs, float64(segs))
		ys = append(ys, ct.Seconds())
	}
	// Linearity check the paper highlights: completion time grows
	// linearly with program size.
	line, err := stats.LinearFit(xs, ys)
	if err != nil {
		return Report{}, err
	}
	fmt.Fprintf(&b, "linear fit: completion = %s + %s/segment (R^2 = %.4f)\n",
		fmtDur(time.Duration(line.Intercept*float64(time.Second))),
		fmtDur(time.Duration(line.Slope*float64(time.Second))), line.R2)
	return Report{Text: b.String(), Series: []Series{series}}, nil
}

func runF11(seed int64) (Report, error) {
	res, err := sim20x20("F11 20x20 tx/rx distribution", seed, 5)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString(runSummary(res))
	series := Series{
		Name:     "f11_traffic",
		Header:   []string{"node", "row", "col", "tx", "rx"},
		Decimals: []int{0, 0, 0, 0, 0},
	}
	totalTx, totalRx, maxTx := 0, 0, 0
	var maxTxNode packet.NodeID
	for i := 0; i < res.Layout.N(); i++ {
		id := packet.NodeID(i)
		tx, rx := res.Collector.TxCount(id), res.Collector.RxCount(id)
		totalTx += tx
		totalRx += rx
		if tx > maxTx {
			maxTx, maxTxNode = tx, id
		}
		r, c, _ := res.Layout.GridCoord(id)
		series.Rows = append(series.Rows, []float64{float64(i), float64(r), float64(c), float64(tx), float64(rx)})
	}
	fmt.Fprintf(&b, "messages sent: total %d, mean %.0f per node, max %d at %v (base station is n0)\n",
		totalTx, float64(totalTx)/float64(res.Layout.N()), maxTx, maxTxNode)
	fmt.Fprintf(&b, "messages received: total %d, mean %.0f per node\n",
		totalRx, float64(totalRx)/float64(res.Layout.N()))
	// Center vs corner reception (the paper: center nodes receive many
	// more messages, having more neighbors).
	center := packet.NodeID(10*res.Layout.Cols() + 10)
	corner := packet.NodeID(res.Layout.N() - 1)
	fmt.Fprintf(&b, "receptions: center node %v = %d, far corner %v = %d\n",
		center, res.Collector.RxCount(center), corner, res.Collector.RxCount(corner))
	b.WriteString(renderIntGrid(res, "transmissions", res.Collector.TxCount))
	b.WriteString(renderIntGrid(res, "receptions", res.Collector.RxCount))
	return Report{Text: b.String(), Series: []Series{series}}, nil
}

func runF12(seed int64) (Report, error) {
	res, err := sim20x20("F12 20x20 message timeline", seed, 5)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString(runSummary(res))
	series := Series{
		Name:     "f12_timeline",
		Header:   []string{"minute", "advertisements", "requests", "data"},
		Decimals: []int{0, 0, 0, 0},
	}
	b.WriteString("minute  advertisements  requests  data\n")
	mix := res.Collector.MessageMix()
	for m, w := range mix {
		fmt.Fprintf(&b, "%6d %15d %9d %5d\n", m, w[0], w[1], w[2])
		series.Rows = append(series.Rows, []float64{float64(m), float64(w[0]), float64(w[1]), float64(w[2])})
	}
	// The paper's observation: the data rate stays nearly constant
	// through the dissemination (a smooth pipeline).
	if n := len(mix); n > 4 {
		mid := mix[1 : n-1]
		minD, maxD := mid[0][2], mid[0][2]
		sum := 0
		for _, w := range mid {
			minD, maxD = min(minD, w[2]), max(maxD, w[2])
			sum += w[2]
		}
		fmt.Fprintf(&b, "data msgs/minute during dissemination: mean %.0f, min %d, max %d\n",
			float64(sum)/float64(len(mid)), minD, maxD)
	}
	return Report{Text: b.String(), Series: []Series{series}}, nil
}

func runF13(seed int64) (Report, error) {
	res, err := sim20x20("F13 propagation progress", seed, 1)
	if err != nil {
		return Report{}, err
	}
	ct := res.CompletionTime
	var b strings.Builder
	b.WriteString(runSummary(res))
	b.WriteString("fraction of nodes holding the segment over time:\n")
	for _, pct := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		t := ct * time.Duration(pct) / 100
		fmt.Fprintf(&b, "  %3d%% of time (%8s): %5.1f%% of nodes\n",
			pct, fmtDur(t), 100*res.Collector.CompletedFractionAt(t))
	}
	// The plotted curve is finer than the text: 0–100 % in 5 % steps.
	series := Series{
		Name:     "f13_progress",
		Header:   []string{"t_s", "fraction_complete"},
		Decimals: []int{1, 4},
	}
	for pct := 0; pct <= 100; pct += 5 {
		t := ct * time.Duration(pct) / 100
		series.Rows = append(series.Rows, []float64{t.Seconds(), res.Collector.CompletedFractionAt(t)})
	}
	// Diagonal-vs-edge propagation: in Deluge, hidden-terminal
	// collisions make the diagonal significantly slower than the edge;
	// MNP's sender selection removes the effect.
	if ratio, ok := diagEdgeRatio(res); ok {
		fmt.Fprintf(&b, "MNP diagonal/edge arrival-time ratio at equal distance: %.2f (1.0 = uniform wavefront)\n", ratio)
	}
	// The contrast the paper draws with [6]: in a *dense* network,
	// Deluge's hidden-terminal collisions slow the diagonal relative
	// to the edge; MNP's sender selection removes the effect. Densify
	// the grid (4 ft spacing, ~130 neighbors per node) to expose it.
	b.WriteString("dense-network contrast (20x20 at 4 ft spacing, mean of 5 runs):\n")
	for _, proto := range []ProtocolKind{ProtocolMNP, ProtocolDeluge} {
		sum, n := 0.0, 0
		for trial := int64(0); trial < 5; trial++ {
			r, ok, err := denseDiagEdgeRatio(proto, 4, seed+trial*31)
			if err != nil {
				return Report{}, err
			}
			if ok {
				sum += r
				n++
			}
		}
		if n == 0 {
			fmt.Fprintf(&b, "  %-7v did not complete\n", proto)
			continue
		}
		fmt.Fprintf(&b, "  %-7v diagonal/edge arrival-time ratio: %.2f (%d runs)\n", proto, sum/float64(n), n)
	}
	return Report{Text: b.String(), Series: []Series{series}}, nil
}

// denseDiagEdgeRatio runs a single-segment dissemination at the given
// spacing and returns its diagEdgeRatio; ok is false when the run did
// not complete.
func denseDiagEdgeRatio(proto ProtocolKind, spacing float64, seed int64) (float64, bool, error) {
	res, err := Run(Setup{
		Name: fmt.Sprintf("F13 contrast %v", proto), Rows: 20, Cols: 20,
		Spacing:      spacing,
		ImagePackets: image.DefaultSegmentPackets,
		Protocol:     proto, Seed: seed, Limit: 12 * time.Hour,
	})
	if err != nil || !res.Completed {
		return 0, false, err
	}
	ratio, ok := diagEdgeRatio(res)
	return ratio, ok, nil
}

// diagEdgeRatio compares code arrival times at diagonal nodes (k, k),
// k = 4, 6, …, 12, against edge nodes at equal Euclidean distance from
// the base corner (k·√2 along row 0, clamped to the grid): the sum of
// the diagonal times over the sum of the edge times. ok is false when
// no pair was sampled.
func diagEdgeRatio(res *Result) (ratio float64, ok bool) {
	cols := res.Layout.Cols()
	var diagSum, edgeSum time.Duration
	for k := 4; k <= 12; k += 2 {
		edgeDist := min(int(math.Round(float64(k)*math.Sqrt2)), cols-1)
		dt, ok1 := res.Collector.GotCodeAt(packet.NodeID(k*cols + k))
		et, ok2 := res.Collector.GotCodeAt(packet.NodeID(edgeDist))
		if ok1 && ok2 {
			diagSum += dt
			edgeSum += et
		}
	}
	if edgeSum == 0 {
		return 0, false
	}
	return diagSum.Seconds() / edgeSum.Seconds(), true
}

// --- Section 5: Deluge comparison ---

func runEDEL(seed int64) (Report, error) {
	var b strings.Builder
	b.WriteString("MNP vs Deluge: 20x20 grid, 5 segments (14.1 KB)\n")
	b.WriteString("protocol  completion   mean ART   ART w/o initial idle   msgs sent\n")
	for _, proto := range []ProtocolKind{ProtocolMNP, ProtocolDeluge} {
		res, err := Run(Setup{
			Name: fmt.Sprintf("EDEL %s", proto),
			Rows: 20, Cols: 20,
			ImagePackets: 5 * image.DefaultSegmentPackets,
			Protocol:     proto,
			Seed:         seed,
			Limit:        12 * time.Hour,
		})
		if err != nil {
			return Report{}, err
		}
		if !res.Completed {
			return Report{}, fmt.Errorf("%s incomplete", proto)
		}
		ct := res.CompletionTime
		totalTx := 0
		for i := 0; i < res.Layout.N(); i++ {
			totalTx += res.Collector.TxCount(packet.NodeID(i))
		}
		fmt.Fprintf(&b, "%-9s %10s %10s %20s %11d\n", proto,
			fmtDur(ct),
			fmtDur(res.Collector.MeanActiveRadioTime(ct)),
			fmtDur(res.Collector.MeanActiveRadioTimeAfterFirstAdv(ct)),
			totalTx)
	}
	b.WriteString("(Deluge keeps its radio on for the whole run: its idle listening time equals\n" +
		" the completion time; MNP trades moderately longer completion for far less\n" +
		" active radio time, the dominant energy cost)\n")
	return Report{Text: b.String()}, nil
}

// --- Ablations ---

func runA1(seed int64) (Report, error) {
	var b strings.Builder
	b.WriteString("A1: sender selection on vs off (10x10, 2 segments)\n")
	b.WriteString("variant            completion  concurrent-senders  collisions  two-hop-overlaps\n")
	series := Series{
		Name:     "a1_selection",
		Header:   []string{"selection", "completion_s", "tx_frames", "data_frames", "collisions", "near_overlaps", "two_hop_overlaps"},
		Decimals: []int{0, 1, 0, 0, 0, 0, 0},
	}
	for _, off := range []bool{false, true} {
		res, err := Run(Setup{
			Name: fmt.Sprintf("A1 selection-off=%v", off),
			Rows: 10, Cols: 10,
			ImagePackets: 2 * image.DefaultSegmentPackets,
			Seed:         seed,
			Limit:        12 * time.Hour,
			Variant:      core.Variant{NoSenderSelection: off},
		})
		if err != nil {
			return Report{}, err
		}
		c := res.Collector
		tx, data, collisions := 0, 0, 0
		for i := 0; i < res.Layout.N(); i++ {
			id := packet.NodeID(i)
			tx += c.TxCount(id)
			data += c.TxByClass(id, packet.ClassData)
			collisions += c.Collisions(id)
		}
		name, selection := "with selection", 1.0
		if off {
			name, selection = "without selection", 0
		}
		fmt.Fprintf(&b, "%-18s %11s %19d %11d %17d\n", name, fmtDur(res.CompletionTime),
			c.ConcurrencyViolations(), collisions, c.TwoHopOverlaps())
		series.Rows = append(series.Rows, []float64{selection, res.CompletionTime.Seconds(),
			float64(tx), float64(data), float64(collisions),
			float64(c.ConcurrencyViolations()), float64(c.TwoHopOverlaps())})
	}
	return Report{Text: b.String(), Series: []Series{series}}, nil
}

func runA2(seed int64) (Report, error) {
	var b strings.Builder
	b.WriteString("A2: sleeping on vs off (10x10, 2 segments)\n")
	b.WriteString("variant        completion   mean ART   ART/completion\n")
	for _, off := range []bool{false, true} {
		res, err := Run(Setup{
			Name: fmt.Sprintf("A2 nosleep=%v", off),
			Rows: 10, Cols: 10,
			ImagePackets: 2 * image.DefaultSegmentPackets,
			Seed:         seed,
			Limit:        12 * time.Hour,
			Variant:      core.Variant{NoSleep: off},
		})
		if err != nil {
			return Report{}, err
		}
		ct := res.CompletionTime
		art := res.Collector.MeanActiveRadioTime(ct)
		name := "with sleep"
		if off {
			name = "without sleep"
		}
		fmt.Fprintf(&b, "%-14s %10s %10s %13.0f%%\n", name, fmtDur(ct), fmtDur(art),
			100*art.Seconds()/ct.Seconds())
	}
	return Report{Text: b.String()}, nil
}

func runA3(seed int64) (Report, error) {
	lossy := radio.DefaultParams()
	lossy.BERFloor = 5e-4
	lossy.BERCeil = 3e-2
	var b strings.Builder
	b.WriteString("A3: query/update repair on vs off (lossy 6x6, 1 segment)\n")
	b.WriteString("variant         completion   data msgs sent\n")
	for _, off := range []bool{false, true} {
		res, err := Run(Setup{
			Name: fmt.Sprintf("A3 repair-off=%v", off),
			Rows: 6, Cols: 6,
			ImagePackets: image.DefaultSegmentPackets,
			Seed:         seed,
			Radio:        &lossy,
			Limit:        12 * time.Hour,
			Variant:      core.Variant{NoQueryUpdate: off},
		})
		if err != nil {
			return Report{}, err
		}
		dataTx := 0
		for i := 0; i < res.Layout.N(); i++ {
			dataTx += res.Collector.TxByClass(packet.NodeID(i), packet.ClassData)
		}
		name := "with repair"
		if off {
			name = "without repair"
		}
		fmt.Fprintf(&b, "%-15s %10s %16d\n", name, fmtDur(res.CompletionTime), dataTx)
	}
	return Report{Text: b.String()}, nil
}

func runA4(seed int64) (Report, error) {
	var b strings.Builder
	b.WriteString("A4: battery-aware sender selection (8x8 at 12 ft, 2 segments; odd nodes at 10% battery)\n")
	b.WriteString("variant          low-batt elections  healthy elections  low-batt data tx  healthy data tx\n")
	// Average over a few seeds: single runs of a 64-node grid are noisy.
	const trials = 3
	for _, aware := range []bool{false, true} {
		var lowElect, highElect, lowData, highData int
		for trial := 0; trial < trials; trial++ {
			res, err := Run(Setup{
				Name: fmt.Sprintf("A4 aware=%v trial %d", aware, trial),
				Rows: 8, Cols: 8,
				Spacing:      12,
				ImagePackets: 2 * image.DefaultSegmentPackets,
				Seed:         seed + int64(trial)*101,
				Limit:        12 * time.Hour,
				Battery: func(id packet.NodeID) float64 {
					if id%2 == 1 {
						return 0.1
					}
					return 1.0
				},
				Variant: core.Variant{BatteryAware: aware},
			})
			if err != nil {
				return Report{}, err
			}
			for _, ev := range res.Collector.SenderEvents() {
				if ev.Node%2 == 1 {
					lowElect++
				} else {
					highElect++
				}
			}
			for i := 0; i < res.Layout.N(); i++ {
				id := packet.NodeID(i)
				d := res.Collector.TxByClass(id, packet.ClassData)
				if id%2 == 1 {
					lowData += d
				} else {
					highData += d
				}
			}
		}
		name := "power uniform"
		if aware {
			name = "battery-aware"
		}
		fmt.Fprintf(&b, "%-16s %19d %18d %17d %16d\n", name, lowElect, highElect, lowData, highData)
	}
	b.WriteString("(battery-aware advertising shifts forwarding duty toward healthy nodes)\n")
	return Report{Text: b.String()}, nil
}

func runA5(seed int64) (Report, error) {
	// The paper (§4.2): "we can use a protocol such as S-MAC or SS-TDMA
	// … a node could sleep for most of the time before the propagation
	// wave arrives." Here the idle state duty-cycles 25% until first
	// contact; Figure 9 predicted the achievable saving.
	var b strings.Builder
	b.WriteString("A5: S-MAC-style idle duty cycle before first contact (20x20, 5 segments)\n")
	b.WriteString("variant            completion   mean ART   ART/completion\n")
	for _, duty := range []bool{false, true} {
		res, err := Run(Setup{
			Name: fmt.Sprintf("A5 duty=%v", duty),
			Rows: 20, Cols: 20,
			ImagePackets: 5 * image.DefaultSegmentPackets,
			Seed:         seed,
			Limit:        12 * time.Hour,
			Variant:      core.Variant{IdleDutyCycle: duty},
		})
		if err != nil {
			return Report{}, err
		}
		if !res.Completed {
			return Report{}, fmt.Errorf("A5 duty=%v incomplete", duty)
		}
		ct := res.CompletionTime
		art := res.Collector.MeanActiveRadioTime(ct)
		name := "always listening"
		if duty {
			name = "25% idle duty"
		}
		fmt.Fprintf(&b, "%-18s %10s %10s %13.0f%%\n", name, fmtDur(ct), fmtDur(art),
			100*art.Seconds()/ct.Seconds())
	}
	b.WriteString("(duty-cycling the pre-contact idle state recovers much of the Figure 9 saving)\n")
	return Report{Text: b.String()}, nil
}

func runA6(seed int64) (Report, error) {
	// §6: "in our experiments and simulation, we kept the base station
	// at the corner. Hence, we expect that this algorithm can be easily
	// extended to the case where the network size is 4 times larger
	// (twice the length and breadth) and the base station is in the
	// center."
	var b strings.Builder
	b.WriteString("A6: scaling — 20x20 corner base vs 40x40 (4x nodes) central base, 2 segments\n")
	b.WriteString("deployment            nodes  completion   mean ART\n")
	type variant struct {
		name       string
		rows, cols int
		base       packet.NodeID
	}
	variants := []variant{
		{name: "20x20, corner base", rows: 20, cols: 20, base: 0},
		{name: "40x40, center base", rows: 40, cols: 40, base: packet.NodeID(20*40 + 20)},
	}
	var completions []time.Duration
	for _, v := range variants {
		res, err := Run(Setup{
			Name: v.name, Rows: v.rows, Cols: v.cols,
			ImagePackets: 2 * image.DefaultSegmentPackets,
			BaseID:       v.base,
			Seed:         seed,
			Limit:        12 * time.Hour,
		})
		if err != nil {
			return Report{}, err
		}
		if !res.Completed {
			return Report{}, fmt.Errorf("A6 %s incomplete (%d/%d)", v.name,
				res.Network.CompletedCount(), res.Layout.N())
		}
		ct := res.CompletionTime
		fmt.Fprintf(&b, "%-21s %5d %11s %10s\n", v.name, res.Layout.N(),
			fmtDur(ct), fmtDur(res.Collector.MeanActiveRadioTime(ct)))
		completions = append(completions, ct)
	}
	fmt.Fprintf(&b, "completion ratio (4x network / baseline): %.2f — the paper predicts ~1\n",
		completions[1].Seconds()/completions[0].Seconds())
	return Report{Text: b.String()}, nil
}
