package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"
)

// specGolden pins the SHA-256 of every paper report at seed 42. The
// digests were recorded before the ablation specs moved from tuning
// closures to protocol options and must never be edited to make a
// change pass: a moved digest is a moved report.
var specGolden = map[string]string{
	"T1":   "00ead9434c8ba9b936135bcfc26d83a0fb93680ba13e60be486b760649aa9503",
	"F5":   "2ff6fc32a47a653d8f38fbafdecc7bf1c64c1e2c25c3f4dd140808a105cada1c",
	"F6":   "db599d931429f1f64084009ecc54621626bd848440d1eb1d24d2f6d35a7c65e3",
	"F7":   "af7a96f93f50916d15bc61618c9663eefb9a7c65f6cd7cb3263bea50118459b2",
	"F8":   "d126b3620a7dac127751c6766b620551c160832377662105551fdc68654c57c2",
	"F9":   "d20facf0f9c792c500b87c7e6654982810bcd6cd07dac511e9e2ae0100e9b600",
	"F10":  "929fcb8e01c5c2456bec355d72fdc8cc6baf8f9e34a5b76639618791c07eb044",
	"F11":  "b2532974123130a7922eb731a0165c3bb278d86560e28f63d685f7f09b0efd37",
	"F12":  "8c318077667e9eb94084697b047b892730dbcd5b04a996f6742b8ba6ec7f0ce5",
	"F13":  "c56bc1164b713ed2a0f0360625940b3ec648f9be3851acf8f619ebb2cb4caa73",
	"EDEL": "d9d551293ef90fabf84df09bfaba6bcdf8f7a2285154eb6ae773f6d97d21863a",
	"A1":   "a6e98f789f886b0e5b3ccc1d179e0308f00b2bee214770955258ff529f91f4d5",
	"A2":   "3726afbc5232539df76f186174125e37234636fba87aca9a93892cb7aa31458e",
	"A3":   "a9feabbbb8ebb93d631f416551be749a742de27c3476addf78dca30981fa17a0",
	"A4":   "bbf2d991d3117dd83ad70d5c6009eca67d2c8b462a02df87e730d63a597f6d19",
	"A5":   "7b29fddefb81e4e1f80d994a84125d545a6447648472d6b8a1f0591c5266a6c8",
	"A6":   "0cf6bddebb810086bf0f3e24c569aae78309a16700eae5f7269952015568b761",
}

// seriesGolden pins the SHA-256 of every plotted series' CSV bytes at
// seed 42, keyed by series name. The digests were recorded from the
// CSV files written before the specs produced their series, and must
// never be edited to make a change pass.
var seriesGolden = map[string]string{
	"f8_art":       "6379ee0f635cff1af9e1cd3251f97d99f107ccf071ed6b2dd9f8e5000455b225",
	"f10_sweep":    "b6e116dd70cfdae1bdb5a37ad528efdf244c29b3076a7e863a1bfed385cfc2b6",
	"f11_traffic":  "7305d6bd0c0f95606ccd07ff733be4a2fdd7bbeb2afc39c8fee13ac095c55a1b",
	"f12_timeline": "2bff7de100219bcbadac813e6889ec327a0fc21ffb6743068034b927b7b8c9ab",
	"f13_progress": "1430fbd4d9ca64df1cc95e1d86940f94d70efc50e53b4aa8a898838ace8d77d3",
}

// seriesOf names the series each spec plots; specs not listed plot
// none.
var seriesOf = map[string]string{
	"F8": "f8_art", "F10": "f10_sweep", "F11": "f11_traffic",
	"F12": "f12_timeline", "F13": "f13_progress",
}

// TestAllSpecsProduceReports runs every paper experiment end to end,
// sanity-checks its report, pins its text against specGolden and its
// series against seriesGolden. This is the same work `cmd/mnpexp all`
// and the benchmark suite do, so it takes a couple of CPU minutes;
// skip it in -short runs.
func TestAllSpecsProduceReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	keyContent := map[string][]string{
		"T1":   {"Transmitting a packet", "83.333"},
		"F5":   {"sender order", "parent map"},
		"F6":   {"sender order", "power 50"},
		"F7":   {"grid-2x10", "sender order"},
		"F8":   {"average active radio time", "ring 19"},
		"F9":   {"without initial idle", "spread"},
		"F10":  {"segments", "linear fit", "R^2"},
		"F11":  {"messages sent", "receptions"},
		"F12":  {"data msgs/minute"},
		"F13":  {"fraction of nodes", "diagonal/edge"},
		"EDEL": {"MNP", "Deluge", "msgs sent"},
		"A1":   {"with selection", "without selection"},
		"A2":   {"with sleep", "without sleep"},
		"A3":   {"with repair", "without repair"},
		"A4":   {"power uniform", "battery-aware"},
		"A5":   {"always listening", "idle duty"},
		"A6":   {"corner base", "center base", "completion ratio"},
	}
	for _, spec := range AllSpecs() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			rep, err := spec.Run(42)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			for _, want := range keyContent[spec.ID] {
				if !strings.Contains(rep.Text, want) {
					t.Errorf("%s report missing %q", spec.ID, want)
				}
			}
			sum := sha256.Sum256([]byte(rep.Text))
			if got := hex.EncodeToString(sum[:]); got != specGolden[spec.ID] {
				t.Errorf("%s report sha256 = %s, want %s", spec.ID, got, specGolden[spec.ID])
			}
			name, plots := seriesOf[spec.ID]
			if !plots {
				if len(rep.Series) != 0 {
					t.Errorf("%s has %d series, want none", spec.ID, len(rep.Series))
				}
				return
			}
			if len(rep.Series) != 1 || rep.Series[0].Name != name {
				t.Fatalf("%s: %d series, want one named %s", spec.ID, len(rep.Series), name)
			}
			s := rep.Series[0]
			checkSeriesShape(t, s)
			var buf bytes.Buffer
			if err := s.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			sum = sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != seriesGolden[name] {
				t.Errorf("%s.csv sha256 = %s, want %s", name, got, seriesGolden[name])
			}
		})
	}
}

// checkSeriesShape asserts what a plot of each series relies on: one
// decimals entry and one cell per header column, a row per node on the
// 20x20 grid, segments 1..10 in the sweep, and a progress curve that
// ends with every node holding the segment.
func checkSeriesShape(t *testing.T, s Series) {
	t.Helper()
	if len(s.Decimals) != len(s.Header) {
		t.Fatalf("%s: %d decimals for %d columns", s.Name, len(s.Decimals), len(s.Header))
	}
	for i, row := range s.Rows {
		if len(row) != len(s.Header) {
			t.Fatalf("%s row %d: %d cells, want %d", s.Name, i, len(row), len(s.Header))
		}
	}
	switch s.Name {
	case "f8_art", "f11_traffic":
		if len(s.Rows) != 400 {
			t.Errorf("%s: %d rows, want 400", s.Name, len(s.Rows))
		}
	case "f10_sweep":
		if len(s.Rows) != 10 {
			t.Fatalf("f10_sweep: %d rows, want 10", len(s.Rows))
		}
		for i, row := range s.Rows {
			if row[0] != float64(i+1) {
				t.Errorf("f10_sweep row %d: segments %v, want %d", i, row[0], i+1)
			}
		}
	case "f12_timeline":
		if len(s.Rows) < 5 {
			t.Errorf("f12_timeline: %d minutes, want >= 5", len(s.Rows))
		}
	case "f13_progress":
		if len(s.Rows) != 21 {
			t.Fatalf("f13_progress: %d rows, want 21", len(s.Rows))
		}
		if last := s.Rows[20][1]; last != 1 {
			t.Errorf("progress curve ends at %v, want 1", last)
		}
	}
}

// TestWriteCSVs checks the CSV rendering every plotted series goes
// through: a header record, one record per row with one cell per
// column, and each cell printed with its column's decimals, so the
// file reads back as the numbers it was written from. It renders a
// small series by hand; the shape of the real series is checked on the
// runs TestAllSpecsProduceReports makes.
func TestWriteCSVs(t *testing.T) {
	s := Series{
		Name:     "progress",
		Header:   []string{"percent", "fraction", "node"},
		Decimals: []int{1, 4, 0},
		Rows:     [][]float64{{0, 0.0025, 3}, {50, 0.5, 17}, {100, 1, 399}},
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "percent,fraction,node\n0.0,0.0025,3\n50.0,0.5000,17\n100.0,1.0000,399\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(s.Rows)+1 {
		t.Fatalf("%d records, want %d", len(records), len(s.Rows)+1)
	}
	for i, rec := range records[1:] {
		for j, cell := range rec {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("row %d: non-numeric cell %q", i, cell)
			}
			if v != s.Rows[i][j] {
				t.Errorf("row %d col %d reads back as %v, want %v", i, j, v, s.Rows[i][j])
			}
		}
	}

	// A header-only series is still a valid file.
	buf.Reset()
	if err := (Series{Header: []string{"minute"}}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "minute\n" {
		t.Fatalf("empty series wrote %q, want %q", got, "minute\n")
	}
}
