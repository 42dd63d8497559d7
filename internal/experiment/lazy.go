package experiment

import "sync"

// lazyCache is a per-key singleflight memo for the Env's lazily computed
// treatment artifacts (dealiased datasets, responsive subsets, output
// dealiasers). Many grid cells resolve the same treatment concurrently
// and cold; the first caller builds, everyone else blocks until the value
// is ready. Builders are infallible and must not re-enter the same key
// (cross-key recursion — seedActive building on dealiasedSeeds — is fine:
// no lock is held while building).
type lazyCache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*lazySlot[V]
}

type lazySlot[V any] struct {
	ready chan struct{}
	v     V
}

// get returns the cached value for k, building it exactly once.
func (l *lazyCache[K, V]) get(k K, build func() V) V {
	l.mu.Lock()
	if l.m == nil {
		l.m = make(map[K]*lazySlot[V])
	}
	if s, ok := l.m[k]; ok {
		l.mu.Unlock()
		<-s.ready
		return s.v
	}
	s := &lazySlot[V]{ready: make(chan struct{})}
	l.m[k] = s
	l.mu.Unlock()
	s.v = build()
	close(s.ready)
	return s.v
}
