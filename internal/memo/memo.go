// Package memo is the one per-key singleflight memo: treatment caches,
// mined TGA models and grid cells are each computed once per key however
// many callers ask for them at the same moment.
package memo

import (
	"context"
	"sync"
)

// Map memoizes one value per key. The zero value is ready to use; a Map
// must not be copied after first use.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

// call is one key's build: done closes when v and err are set.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the value for k, running build if no caller has built it yet.
//
//   - Concurrent callers for one key run build once; the rest wait for it.
//   - A value built without error is kept and returned to every later caller.
//   - A failed build is not kept: its error goes to the caller that ran it,
//     and a waiter whose ctx is still live retries, becoming the next
//     builder.
//   - A waiter whose ctx ends first returns ctx.Err(); the build goes on.
//
// shared reports that v came from another caller's build. ctx only bounds
// the wait: build should capture whatever context it needs. build must not
// call Do for its own key, which would wait for itself.
func (m *Map[K, V]) Do(ctx context.Context, k K, build func() (V, error)) (v V, shared bool, err error) {
	for {
		m.mu.Lock()
		c, ok := m.m[k]
		if !ok {
			if m.m == nil {
				m.m = make(map[K]*call[V])
			}
			c = &call[V]{done: make(chan struct{})}
			m.m[k] = c
		}
		m.mu.Unlock()
		if !ok {
			c.v, c.err = build()
			if c.err != nil {
				m.mu.Lock()
				delete(m.m, k)
				m.mu.Unlock()
			}
			close(c.done)
			return c.v, false, c.err
		}
		select {
		case <-c.done:
			if c.err == nil {
				return c.v, true, nil
			}
			if err := ctx.Err(); err != nil {
				return v, false, err
			}
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
}

// Len reports the number of kept and in-flight keys.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
