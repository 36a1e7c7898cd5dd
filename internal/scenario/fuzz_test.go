package scenario

import (
	"reflect"
	"testing"
)

// FuzzScenarioParse drives arbitrary bytes through the TOML/JSON
// front end. Properties: Parse never panics, two parses of the same
// bytes are DeepEqual, and an accepted document compiles without
// panicking. (Documents naming a points file are not compiled — the
// fuzzer has no filesystem — nor are ones whose layout is too large to
// build quickly.)
func FuzzScenarioParse(f *testing.F) {
	f.Add([]byte(fullDoc))
	f.Add([]byte("version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n"))
	f.Add([]byte(`{"version": 1, "topology": {"kind": "line", "n": 3}}`))
	f.Add([]byte("version = 1\n[topology]\nkind = \"points\"\npoints = [[0,0],[1,1]]\n"))
	f.Add([]byte("version = 1\nfaults = \"crash:1@2s\"\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[run]\nseeds = [1,\n 2]\n"))
	f.Add([]byte("version = 1\n[topology]\nkind = \"grid\"\nrows = 2\ncols = 2\n[mobility]\nkind = \"waypoint\"\nspeed_min = 1\nspeed_max = 3\npause = \"5s\"\nevery = \"2s\"\nseed = 3\n"))
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
		if n, _ := sc.Topology.nodeCount(); sc.Topology.Kind == "file" || n > 256 || sc.Topology.Attempts > 64 {
			return
		}
		_, _ = sc.Compile() // an error is an answer; a panic fails the fuzz
	})
}
