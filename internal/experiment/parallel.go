package experiment

import "runtime"

// Experiment grids run many independent TGA runs; each run is
// deterministic in isolation (its own generator, deterministic scanning
// and dealiasing), so running them concurrently changes wall-clock time
// and nothing else. Shared state (the scanner's atomic counters, the
// output dealiaser's verdict cache, the telemetry registry, the Env's
// per-key singleflight treatment caches) is concurrency-safe, so
// harnesses fan out without resolving seed lists first.

// Workers returns the experiment fan-out width: EnvConfig.Workers if
// set, else NumCPU-1 capped at 8.
func (e *Env) Workers() int {
	if e.Cfg.Workers > 0 {
		return e.Cfg.Workers
	}
	w := runtime.NumCPU() - 1
	if w < 1 {
		w = 1
	}
	if w > 8 {
		w = 8
	}
	return w
}
