package scenario

import (
	"reflect"
	"testing"

	"mnp/internal/experiment"
)

// FuzzScenarioParse drives arbitrary bytes through the TOML front end.
// Properties: Parse never panics, two parses of the same bytes are
// DeepEqual, and an accepted document of at most 256 motes compiles
// and builds (experiment.Build: layout, spatial index, radio, fleet)
// without panicking or hanging. (Larger layouts are skipped only to
// keep each input fast.)
func FuzzScenarioParse(f *testing.F) {
	f.Add([]byte(fullDoc))
	f.Add([]byte("version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n"))
	f.Add([]byte("version = 1\n[topology]\nkind = \"line\"\nn = 3\nspacing = 1e308\n"))
	f.Add([]byte("version = 1\n[topology]\nkind = \"random\"\nn = 12\nwidth = 40\nheight = 40\nradius = 27\n[run]\nseed = 5\n"))
	f.Add([]byte("version = 1\nfaults = \"crash:1@2s\"\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[run]\nseeds = [1,\n 2]\n"))
	f.Add([]byte("version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[mobility]\nkind = \"waypoint\"\nspeed_min = 1\nspeed_max = 3\npause = \"5s\"\nevery = \"2s\"\n"))
	f.Add([]byte("key = \"unclosed"))
	f.Add([]byte("[[a]]\n[[a]]\nx = 1\n[a.b]\ny = 2\n"))
	f.Add([]byte("version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[run]\noptimistic = true\nlookahead = 8\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		again, err := Parse(data)
		if err != nil {
			t.Fatalf("second parse of the same bytes failed: %v", err)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("two parses of the same bytes differ\nfirst:  %+v\nsecond: %+v", sc, again)
		}
		topo := sc.Topology
		if topo.N > 256 || topo.Rows > 256 || topo.Cols > 256 || topo.Rows*topo.Cols > 256 {
			return
		}
		setup, err := sc.Compile()
		if err != nil {
			return // an error is an answer; a panic fails the fuzz
		}
		_, _ = experiment.Build(setup)
	})
}
