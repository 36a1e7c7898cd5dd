//go:build race

package race

// Enabled is true: the binary was built with -race.
const Enabled = true
