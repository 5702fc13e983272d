package place_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/circuit"
	"zac/internal/place"
	"zac/internal/resynth"
	"zac/internal/schedule"
)

func stagedBench(t *testing.T, name string) *circuit.Staged {
	t.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := resynth.Preprocess(bm.Build())
	if err != nil {
		t.Fatal(err)
	}
	return staged
}

// settleGoroutines waits for the goroutine count to return to (near) its
// baseline, failing the test if parallel workers leaked past cancellation.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBuildPlanCancelParallel aborts a multi-restart, multi-worker BuildPlan
// mid-flight and checks the cancellation propagates as context.Canceled with
// every worker goroutine torn down. Run under -race this also exercises the
// concurrent teardown paths of the restart pool and the 2-way transition race.
func TestBuildPlanCancelParallel(t *testing.T) {
	a := arch.Reference()
	staged := stagedBench(t, "qft_n18")
	opts := place.Default()
	opts.SARestarts = 4
	opts.Workers = 4
	baseline := runtime.NumGoroutine()

	// Pre-cancelled: must fail before any real work.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := place.BuildPlan(pre, a, staged, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled BuildPlan: err = %v, want context.Canceled", err)
	}

	// Mid-flight: cancel concurrently at staggered delays so the abort
	// lands in different phases (SA restarts, transition solves) across
	// iterations; either outcome (finished or cancelled) is legal, but a
	// cancelled run must report context.Canceled and leak nothing.
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		_, err := place.BuildPlan(ctx, a, staged, opts)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled BuildPlan: err = %v, want context.Canceled or nil", err)
		}
		cancel()
	}
	settleGoroutines(t, baseline)
}

// TestScheduleCancelParallel aborts the parallel schedule pass (conflict
// graph build on 4 workers) mid-flight: clean context.Canceled, no leaked
// workers, and a pre-cancelled context never starts.
func TestScheduleCancelParallel(t *testing.T) {
	a := arch.Reference()
	staged := stagedBench(t, "ising_n42") // wide stages → many moves per phase
	plan, err := place.BuildPlan(context.Background(), a, staged, place.Default())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := schedule.BuildWithOptions(pre, a, staged, plan, schedule.Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled schedule: err = %v, want context.Canceled", err)
	}

	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		_, err := schedule.BuildWithOptions(ctx, a, staged, plan, schedule.Options{Workers: 4})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled schedule: err = %v, want context.Canceled or nil", err)
		}
		cancel()
	}
	settleGoroutines(t, baseline)
}
