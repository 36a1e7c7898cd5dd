package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzScenarioParse drives arbitrary bytes through the TOML/JSON
// front end. Properties: Parse never panics, and any document that
// parses must round-trip through the canonical encoder to an
// identical value and a byte-stable encoding. (Documents naming a
// points file are skipped from the re-parse check only if the file
// genuinely resolves — the fuzzer has no filesystem.)
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
		enc1 := sc.EncodeTOML()
		again, err := Parse(enc1)
		if err != nil {
			t.Fatalf("canonical encoding failed to re-parse: %v\ninput: %q\nencoding:\n%s", err, data, enc1)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("round trip changed the document\nfirst:  %+v\nsecond: %+v", sc, again)
		}
		if enc2 := again.EncodeTOML(); !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\n---\n%s", enc1, enc2)
		}
	})
}
