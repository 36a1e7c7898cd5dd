//go:build !race

// Package race tells code whether the race detector is on, for tests
// that count allocations and must skip when the detector's own
// bookkeeping would be counted with them.
package race

// Enabled is false: the binary was built without -race.
const Enabled = false
