package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/pkg/plru"
)

// engineOptions is a bit smaller than tinyOptions: the determinism test
// runs Fig7 and Fig9 twice over.
func engineOptions(parallelism int) Options {
	return Options{
		Insts:         30_000,
		Interval:      15_000,
		SampleRate:    8,
		L2SizeKB:      1024,
		WorkloadLimit: 1,
		Parallelism:   parallelism,
	}
}

// TestParallelDeterminism asserts the engine's central guarantee: the
// figures' CSV output is byte-identical at Parallelism 1 and 8.
func TestParallelDeterminism(t *testing.T) {
	ctx := context.Background()
	type output struct{ fig7, fig9 string }
	render := func(parallelism int) output {
		h := New(engineOptions(parallelism))
		d7, err := h.Fig7(ctx)
		if err != nil {
			t.Fatal(err)
		}
		d9, err := h.Fig9(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return output{d7.CSV(), d9.CSV()}
	}
	serial := render(1)
	parallel := render(8)
	if serial.fig7 != parallel.fig7 {
		t.Errorf("Fig7 CSV differs between Parallelism 1 and 8:\nserial:\n%s\nparallel:\n%s",
			serial.fig7, parallel.fig7)
	}
	if serial.fig9 != parallel.fig9 {
		t.Errorf("Fig9 CSV differs between Parallelism 1 and 8:\nserial:\n%s\nparallel:\n%s",
			serial.fig9, parallel.fig9)
	}
}

// TestSingleflightSharedConfig asserts that concurrent requests for the
// same configuration simulate it exactly once.
func TestSingleflightSharedConfig(t *testing.T) {
	ctx := context.Background()
	h := New(engineOptions(8))
	w, err := workload.Lookup("2T_01")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := h.Run(ctx, w, plru.LRU, "", 1024)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Throughput()
		}(i)
	}
	wg.Wait()
	if n := h.Simulated(); n != 1 {
		t.Fatalf("simulated %d times for one config, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw %v, caller 0 saw %v", i, results[i], results[0])
		}
	}
}

// TestPrefetchDedup asserts duplicated specs collapse to one simulation
// each, and that the OnJob counter reports the deduplicated total.
func TestPrefetchDedup(t *testing.T) {
	ctx := context.Background()
	opt := engineOptions(4)
	var lastDone, lastTotal int
	opt.OnJob = func(done, total int) { lastDone, lastTotal = done, total }
	h := New(opt)
	w, err := workload.Lookup("2T_01")
	if err != nil {
		t.Fatal(err)
	}
	sp := RunSpec{W: w, Kind: plru.LRU, SizeKB: 1024}
	if err := h.Prefetch(ctx, []RunSpec{sp, sp, sp, isoSpec("gzip", 1024)}); err != nil {
		t.Fatal(err)
	}
	if n := h.Simulated(); n != 2 {
		t.Fatalf("simulated %d configs, want 2", n)
	}
	if lastDone != 2 || lastTotal != 2 {
		t.Fatalf("OnJob last report %d/%d, want 2/2", lastDone, lastTotal)
	}
}

// TestCanceledContext asserts a pre-canceled context stops the engine
// before any simulation starts.
func TestCanceledContext(t *testing.T) {
	h := New(engineOptions(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := workload.Lookup("2T_01")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(ctx, w, plru.LRU, "", 1024); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled ctx: %v, want context.Canceled", err)
	}
	if _, err := h.Fig7(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig7 on canceled ctx: %v, want context.Canceled", err)
	}
	if n := h.Simulated(); n != 0 {
		t.Fatalf("simulated %d configs on a canceled context, want 0", n)
	}
}

// TestCancellationStopsPool cancels after the first completed job and
// asserts the pool winds down without draining the whole sweep.
func TestCancellationStopsPool(t *testing.T) {
	opt := engineOptions(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt.OnJob = func(done, total int) {
		if done == 1 {
			cancel()
		}
	}
	h := New(opt)
	ws, err := workload.ByThreads(2)
	if err != nil {
		t.Fatal(err)
	}
	var specs []RunSpec
	for _, w := range ws[:6] {
		specs = append(specs, RunSpec{W: w, Kind: plru.LRU, SizeKB: 1024})
	}
	err = h.Prefetch(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Prefetch after cancel: %v, want context.Canceled", err)
	}
	// With one worker slot, at most the job that triggered the cancel
	// plus one already-started successor can complete.
	if n := h.Simulated(); n >= int64(len(specs)) {
		t.Fatalf("simulated %d of %d jobs despite cancellation", n, len(specs))
	}
}
