package memo

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// waitingCtx signals on asked the first time Do reads its Done channel,
// which Do does only while waiting for another caller's build.
type waitingCtx struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func newWaitingCtx(parent context.Context) *waitingCtx {
	return &waitingCtx{Context: parent, asked: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// blockedBuild starts a build of k on its own goroutine that runs until
// release is closed and then returns (v, err). It returns once the build
// is running, with a channel that yields the owner's Do error.
func blockedBuild(m *Map[string, int], k string, v int, err error) (release chan struct{}, owner chan error) {
	started := make(chan struct{})
	release, owner = make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, e := m.Do(context.Background(), k, func() (int, error) {
			close(started)
			<-release
			return v, err
		})
		owner <- e
	}()
	<-started
	return release, owner
}

// TestCancelledWaiterReturnsDuringBuild: a waiter whose ctx ends returns
// ctx.Err() at once, while the build it joined is still running, and the
// build's value is kept for later callers.
func TestCancelledWaiterReturnsDuringBuild(t *testing.T) {
	var m Map[string, int]
	release, owner := blockedBuild(&m, "k", 5, nil)

	parent, cancel := context.WithCancel(context.Background())
	ctx := newWaitingCtx(parent)
	waiter := make(chan error, 1)
	go func() {
		_, _, err := m.Do(ctx, "k", func() (int, error) {
			t.Error("waiter built a key that was in flight")
			return 0, nil
		})
		waiter <- err
	}()
	<-ctx.asked
	cancel()
	if err := <-waiter; err != context.Canceled {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	v, shared, err := m.Do(context.Background(), "k", nil)
	if v != 5 || !shared || err != nil {
		t.Fatalf("after build: %d, %v, %v", v, shared, err)
	}
}

// TestLiveWaiterRebuildsAfterOwnerFails: when the build a waiter joined
// fails, the waiter (its ctx still live) does not get the owner's error;
// it runs its own build, whose value is kept.
func TestLiveWaiterRebuildsAfterOwnerFails(t *testing.T) {
	var m Map[string, int]
	boom := errors.New("boom")
	release, owner := blockedBuild(&m, "k", 0, boom)

	ctx := newWaitingCtx(context.Background())
	type result struct {
		v      int
		shared bool
		err    error
	}
	waiter := make(chan result, 1)
	go func() {
		v, shared, err := m.Do(ctx, "k", func() (int, error) { return 9, nil })
		waiter <- result{v, shared, err}
	}()
	<-ctx.asked
	close(release)
	if err := <-owner; err != boom {
		t.Fatalf("owner err = %v, want boom", err)
	}
	if r := <-waiter; r != (result{9, false, nil}) {
		t.Fatalf("waiter = %+v, want its own build's 9", r)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestDeadWaiterDoesNotRebuild: a waiter whose ctx ended by the time the
// owner's build fails returns ctx.Err() instead of building.
func TestDeadWaiterDoesNotRebuild(t *testing.T) {
	var m Map[string, int]
	release, owner := blockedBuild(&m, "k", 0, errors.New("boom"))

	parent, cancel := context.WithCancel(context.Background())
	ctx := newWaitingCtx(parent)
	waiter := make(chan error, 1)
	go func() {
		_, _, err := m.Do(ctx, "k", func() (int, error) {
			t.Error("a waiter with a dead ctx built")
			return 0, nil
		})
		waiter <- err
	}()
	<-ctx.asked
	cancel()
	close(release)
	<-owner
	if err := <-waiter; err != context.Canceled {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

// TestFreeListBounded: Get takes what Put kept, a full list drops what
// is put on it, and an empty one reports so.
func TestFreeListBounded(t *testing.T) {
	skipUnlessRecycling(t)
	l := NewFreeList[int](nil)
	if _, ok := l.Get(); ok {
		t.Fatal("an empty list returned a value")
	}
	for v := 1; v <= FreeListLen+1; v++ {
		l.Put(v)
	}
	if len(l.ch) != FreeListLen {
		t.Fatalf("list holds %d values, want its capacity %d", len(l.ch), FreeListLen)
	}
	for want := 1; want <= FreeListLen; want++ {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v, want %d, true", v, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("a drained list returned a value")
	}
}

// TestRecycleKeepsUpToTheBound: Recycle keeps a value holding
// MaxKeptEntries entries and drops one holding more.
func TestRecycleKeepsUpToTheBound(t *testing.T) {
	skipUnlessRecycling(t)
	l := NewFreeList[int](nil)
	l.Recycle(1, MaxKeptEntries+1)
	l.Recycle(2, MaxKeptEntries)
	if v, ok := l.Get(); !ok || v != 2 || len(l.ch) != 0 {
		t.Fatalf("Get = %d, %v with %d left, want only the value at the bound", v, ok, len(l.ch))
	}
}

// skipUnlessRecycling skips a test of what a free list keeps in a poisoned
// build that drops values or has recycling turned off, which break it on
// purpose.
func skipUnlessRecycling(t *testing.T) {
	if dropOneIn > 0 || !recycling {
		t.Skip("this build drops recycled values or turns recycling off")
	}
}

// TestPoisonScribblesBothWays: a poisoned build scribbles a value when it
// is put and again when it is lent; any other build never does.
func TestPoisonScribblesBothWays(t *testing.T) {
	scribbled := 0
	l := NewFreeList(func(v *[]int) { scribbled++ })
	v := []int{1}
	l.Put(&v)
	got, ok := l.Get()
	want := 0
	if poisoning {
		want = 1 // the Put's
		if ok {
			want = 2
		}
	}
	if scribbled != want {
		t.Fatalf("scribbled %d times, want %d", scribbled, want)
	}
	if !poisoning && (!ok || got != &v) {
		t.Fatal("an unpoisoned list did not lend back what was put")
	}
}
