package hitlist

import (
	"seedscan/internal/alias"
	"seedscan/internal/scanner"
	"seedscan/internal/telemetry"
)

// Option configures a Service at construction time, following the same
// functional-options convention as scanner.New: every setting is explicit
// and defaults are pinned in defaultSettings.
type Option func(*settings)

// settings is the resolved configuration an option set produces.
type settings struct {
	prober scanner.Prober
	known  *alias.OfflineList
	seed   uint64
	tele   *telemetry.Registry
}

// defaultSettings returns the pinned defaults: no known-alias list, seed 0,
// no telemetry. The prober has no default — New rejects a nil prober.
func defaultSettings() settings {
	return settings{}
}

// WithProber sets the scanning dependency used to verify responsiveness
// and to power the online alias test. Required.
func WithProber(p scanner.Prober) Option {
	return func(s *settings) { s.prober = p }
}

// WithKnownAliases seeds the offline tier of the alias filter. A nil list
// is accepted and leaves the offline tier empty.
func WithKnownAliases(list *alias.OfflineList) Option {
	return func(s *settings) { s.known = list }
}

// WithSeed keys the online dealiaser's probe generation.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithTelemetry wires a metrics registry into the service: build counters,
// per-stage histograms, and the dealiaser's alias.* counters. A nil
// registry is accepted and leaves telemetry off.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *settings) { s.tele = reg }
}
