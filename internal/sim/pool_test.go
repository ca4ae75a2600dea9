package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestRunPoolOneWorkerStopsAtFirstError pins the inline one-worker pool:
// jobs run in order from a single worker, the first failure is returned,
// and no later job starts.
func TestRunPoolOneWorkerStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var started []int
	workers := 0
	err := runPool(context.Background(), 5, 1, func() func(int) error {
		workers++
		return func(ji int) error {
			started = append(started, ji)
			if ji == 2 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(started, want) {
		t.Fatalf("started jobs %v, want %v", started, want)
	}
	if workers != 1 {
		t.Fatalf("built %d workers, want 1", workers)
	}
}

// TestRunPoolOneWorkerHonorsCancel: a cancelled ctx starts no job, and a
// cancellation during a job lets that job finish but starts no later one.
func TestRunPoolOneWorkerHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := runPool(ctx, 3, 1, func() func(int) error {
		return func(int) error { ran++; return nil }
	})
	if err != nil || ran != 0 {
		t.Fatalf("cancelled pool: err=%v, ran %d jobs, want nil and 0", err, ran)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var started []int
	err = runPool(ctx, 4, 1, func() func(int) error {
		return func(ji int) error {
			started = append(started, ji)
			if ji == 1 {
				cancel()
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(started, want) {
		t.Fatalf("started jobs %v after mid-run cancel, want %v", started, want)
	}
}
