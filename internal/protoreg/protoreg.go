// Package protoreg is the dissemination-protocol registry, the one
// place that knows a protocol. Each protocol package (core, deluge,
// moap, xnp, rlnc, gossip) registers a named builder and its display
// name from an init function; the experiment layer, the CLIs and the
// declarative scenario layer select a protocol by that name and tune
// it with string options, so adding a protocol is one Register call
// and scenario files can say `name = "deluge"` without the experiment
// package knowing every implementation.
package protoreg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mnp/internal/image"
	"mnp/internal/node"
	"mnp/internal/packet"
)

// Build carries everything a protocol constructor needs to instantiate
// the state machine for one node.
type Build struct {
	// ID is the node being built.
	ID packet.NodeID
	// Base marks the seeding node; its configuration is preloaded with
	// Image.
	Base bool
	// Image is the program under dissemination (required at the base).
	Image *image.Image
	// Options are declarative protocol knobs, typically compiled from a
	// scenario file. Keys are protocol-specific (see each package's
	// register.go; only mnp has any); an unknown key is an error. Nil
	// leaves the protocol at its package defaults.
	Options map[string]string
}

// Builder constructs one node's protocol instance.
type Builder func(Build) (node.Protocol, error)

type entry struct {
	display string
	build   Builder
}

var registry = map[string]entry{}

// Register adds a protocol under a unique lower-case name, with the
// display name reports print for it ("MNP", "Deluge"). It is meant to
// be called from package init functions and panics on duplicates or
// empty names — both are programmer errors.
func Register(name, display string, b Builder) {
	if name == "" || strings.ToLower(name) != name {
		panic(fmt.Sprintf("protoreg: invalid protocol name %q (must be non-empty lower-case)", name))
	}
	if display == "" {
		panic(fmt.Sprintf("protoreg: empty display name for %q", name))
	}
	if b == nil {
		panic(fmt.Sprintf("protoreg: nil builder for %q", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("protoreg: protocol %q registered twice", name))
	}
	registry[name] = entry{display, b}
}

// Lookup finds a registered builder by name (case-insensitive).
func Lookup(name string) (Builder, bool) {
	e, ok := registry[strings.ToLower(name)]
	return e.build, ok
}

// Display returns a registered protocol's display name
// (case-insensitive lookup).
func Display(name string) (string, bool) {
	e, ok := registry[strings.ToLower(name)]
	return e.display, ok
}

// Names lists the registered protocols in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ValidateOptions dry-builds a non-base instance of the named protocol
// so malformed option maps fail at configuration time, not mid-fleet
// construction.
func ValidateOptions(name string, options map[string]string) error {
	b, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("protoreg: unknown protocol %q (have %s)", name, strings.Join(Names(), ", "))
	}
	if _, err := b(Build{Options: options}); err != nil {
		return fmt.Errorf("protoreg: %s options: %w", name, err)
	}
	return nil
}

// Option-map decoding shared by the protocol builders. Bool consumes a
// key (so Err can reject leftovers), parses it into the destination,
// and accumulates the first error; a builder with no knobs calls Err
// alone, so any key is an error.

// Opts wraps an option map with single-error accumulation. Parsed
// values are buffered and committed by Err() only when the whole map
// decoded cleanly — a bad key must not leave the caller's config
// half-mutated, because builders validate against the same config
// value they then construct from.
type Opts struct {
	m       map[string]string
	used    map[string]bool
	err     error
	pending []func() // deferred assignments, applied atomically by Err
}

// NewOpts wraps an option map for decoding.
func NewOpts(m map[string]string) *Opts {
	return &Opts{m: m, used: make(map[string]bool, len(m))}
}

func (o *Opts) lookup(key string) (string, bool) {
	v, ok := o.m[key]
	if ok {
		o.used[key] = true
	}
	return v, ok
}

func (o *Opts) fail(key, val string, err error) {
	if o.err == nil {
		o.err = fmt.Errorf("option %s=%q: %w", key, val, err)
	}
}

// Bool parses key as a boolean into dst when present.
func (o *Opts) Bool(key string, dst *bool) {
	if v, ok := o.lookup(key); ok {
		b, err := strconv.ParseBool(v)
		if err != nil {
			o.fail(key, v, err)
			return
		}
		o.pending = append(o.pending, func() { *dst = b })
	}
}

// Err returns the first decode error plus an unknown-key check: every
// key the builder did not consume is a typo worth rejecting loudly.
// Only when both checks pass are the buffered assignments applied, so
// an erroring map leaves every destination untouched.
func (o *Opts) Err() error {
	if o.err != nil {
		return o.err
	}
	var unknown []string
	for k := range o.m {
		if !o.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("unknown option %s", strings.Join(unknown, ", "))
	}
	for _, commit := range o.pending {
		commit()
	}
	o.pending = nil
	return nil
}
