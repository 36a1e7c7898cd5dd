package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The files of a telemetry directory: the NDJSON record stream (meta
// record first, summary last) and the final counters in Prometheus text
// format.
const (
	eventsFile   = "events.ndjson"
	countersFile = "counters.prom"
)

// Dir is a run's telemetry directory. It is the one writer of its
// layout: callers hand Recorder to the run and Finish it with the run's
// counters.
type Dir struct {
	path string
	rec  *Recorder
}

// CreateDir makes path (and its parents) and opens a fresh event stream
// in it. The recorder's clock reads zero until the run binds its own;
// experiment.Build does so before the first record that needs one.
func CreateDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	s, err := CreateStream(filepath.Join(path, eventsFile))
	if err != nil {
		return nil, err
	}
	return &Dir{path: path, rec: &Recorder{s: s, now: func() time.Duration { return 0 }}}, nil
}

// Recorder returns the recorder streaming into the directory.
func (d *Dir) Recorder() *Recorder { return d.rec }

// Close closes the event stream. It is safe after Finish, so a caller
// can defer it to cover its error paths.
func (d *Dir) Close() error { return d.rec.s.Close() }

// Finish writes c into the directory, closes the event stream, and
// returns a one-line summary naming both files.
func (d *Dir) Finish(c *Counters) (string, error) {
	promPath := filepath.Join(d.path, countersFile)
	f, err := os.Create(promPath)
	if err != nil {
		return "", err
	}
	if err := c.WritePrometheus(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := d.Close(); err != nil {
		return "", fmt.Errorf("telemetry stream: %w", err)
	}
	return fmt.Sprintf("telemetry: %d NDJSON records in %s, counters in %s",
		d.rec.s.Lines(), filepath.Join(d.path, eventsFile), promPath), nil
}
