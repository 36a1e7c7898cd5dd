package experiment

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestAllSpecsProduceReports runs every paper experiment end to end,
// sanity-checks its report and pins its bytes against specGolden. This
// is the same work `cmd/mnpexp all` and the benchmark suite do, so it
// takes a couple of CPU minutes; skip it in -short runs.
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
			out, err := spec.Run(42)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			for _, want := range keyContent[spec.ID] {
				if !strings.Contains(out, want) {
					t.Errorf("%s report missing %q", spec.ID, want)
				}
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != specGolden[spec.ID] {
				t.Errorf("%s report sha256 = %s, want %s", spec.ID, got, specGolden[spec.ID])
			}
		})
	}
}
