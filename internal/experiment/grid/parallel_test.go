package grid

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunParallelErrorCancelsSiblings is the regression test for the grid
// fan-out bug where one job's failure left its siblings running to
// completion: the failing job must cancel the shared grid context so a
// blocked sibling unblocks promptly.
func TestRunParallelErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	unblocked := make(chan struct{})
	err := RunParallel(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			// Give the sibling time to start and block on its context.
			time.Sleep(10 * time.Millisecond)
			return boom
		}
		select {
		case <-ctx.Done():
			close(unblocked)
			return ctx.Err()
		case <-time.After(30 * time.Second):
			return errors.New("sibling never saw the cancellation")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the first worker error", err)
	}
	select {
	case <-unblocked:
	default:
		t.Fatal("blocked sibling did not observe grid cancellation")
	}
}

// TestRunParallelSerialPathUsesGridContext covers one worker: a failure
// stops the indices after it, as it does with several.
func TestRunParallelSerialPathUsesGridContext(t *testing.T) {
	boom := errors.New("boom")
	var ran int
	err := RunParallel(context.Background(), 1, 3, func(ctx context.Context, i int) error {
		ran++
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d jobs after a serial failure, want 1", ran)
	}
}

// TestRunParallelParentCancelWins: a parent cancellation must surface as
// the parent's error even when no job failed.
func TestRunParallelParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := RunParallel(ctx, 2, 4, func(ctx context.Context, i int) error {
		cancel()
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
