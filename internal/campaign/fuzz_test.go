package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzPlanParse drives arbitrary bytes through ParsePlan. Properties:
// it never panics, and two parses of the same bytes yield the same
// fingerprint and the same cell keys in the same order — the two things
// a checkpoint is matched against on resume.
func FuzzPlanParse(f *testing.F) {
	f.Add([]byte(planDoc))
	f.Add([]byte("version = 1\n[scenario.topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n"))
	f.Add([]byte("version = 1\nseeds = [1]\nfault_plans = [\"\", \"crash:3@60s\"]\n[[topologies]]\nkind = \"line\"\nn = 3\nspacing = -5\n"))
	f.Add([]byte("version = 1\nprotocols = [\"gossip\"]\n[[mobilities]]\nkind = \"waypoint\"\nspeed_min = 1\nspeed_max = 2\n[scenario.topology]\nkind = \"random\"\nn = 6\nwidth = 30\nheight = 30\n"))
	f.Add([]byte("version = 1\nworkers = 4\nseeds = [3, 3]\n"))
	for _, pattern := range []string{"../../examples/*/*.toml", "../../bench/workloads/*.toml"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		again, err := ParsePlan(data)
		if err != nil {
			t.Fatalf("second parse of the same bytes failed: %v", err)
		}
		if p.Fingerprint() != again.Fingerprint() {
			t.Fatalf("two parses of the same bytes fingerprint differently")
		}
		if a, b := cellKeys(t, p), cellKeys(t, again); !reflect.DeepEqual(a, b) {
			t.Fatalf("two parses of the same bytes expand differently:\n%v\n%v", a, b)
		}
	})
}

func cellKeys(t *testing.T, p *Plan) []string {
	t.Helper()
	cells, err := p.Expand()
	if err != nil {
		t.Fatalf("a parsed plan fails to expand: %v", err)
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	return keys
}
