// Package experiments reproduces the paper's evaluation: Table I
// (complexity), Table II (setup), Figure 6 (pseudo-LRU vs LRU on
// non-partitioned caches), Figure 7 (the six CPA configurations), Figure 8
// (partitioned vs non-partitioned across cache sizes) and Figure 9 (power
// and energy).
//
// The harness runs scaled-down simulations by default (the paper commits
// 100 M instructions per thread on a cycle-accurate simulator; see
// EXPERIMENTS.md for the scaling discussion) and memoizes runs so figures
// that share configurations — 7 and 9 — reuse work.
//
// Simulations execute through a bounded worker pool (internal/
// experiments/sched): each figure first gathers the full list of
// simulations it needs, prefetches them concurrently, then assembles its
// data serially from the memoized results. Because every simulation is
// seeded from its own configuration and shares no state with its
// siblings, the assembled figures are bit-identical at any Parallelism
// setting, including 1.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments/sched"
	"repro/internal/metrics"
	"repro/internal/optref"
	"repro/internal/power"
	"repro/internal/profiling"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// Options scale the experiments.
type Options struct {
	Insts      uint64 // per-thread instruction target
	Interval   uint64 // repartition interval in cycles
	SampleRate int    // ATD set sampling (paper: 32)
	L2SizeKB   int    // default L2 capacity for Figures 6, 7, 9
	// WorkloadLimit caps the number of workloads per thread count
	// (0 = all); used to keep tests and smoke runs fast.
	WorkloadLimit int
	// Parallelism bounds how many simulations run concurrently
	// (0 = GOMAXPROCS). Figure output is bit-identical at any setting.
	Parallelism int
	// Progress, when non-nil, receives one line per completed
	// simulation. It may be called from multiple goroutines at once and
	// must be safe for concurrent use.
	Progress func(format string, args ...any)
	// OnJob, when non-nil, receives (completed, total) after each
	// prefetched simulation finishes; calls are serialized. cmd/repro
	// uses it for a live completed/total counter.
	OnJob func(done, total int)
}

// DefaultOptions returns the scaled defaults recorded in EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{
		Insts:      1_000_000,
		Interval:   250_000,
		SampleRate: 32,
		L2SizeKB:   2048,
	}
}

// Harness runs simulations through a shared worker pool, memoizing every
// unique configuration so overlapping figures simulate it once.
type Harness struct {
	opt       Options
	pool      *sched.Pool
	runs      *sched.Cache[cmp.Results]
	optRuns   *sched.Cache[optref.Stats] // Belady replays, keyed per workload × size
	simulated atomic.Int64               // completed simulations (cache misses only)
}

// New returns a harness for the options; zero fields take the
// DefaultOptions values (Parallelism 0 = GOMAXPROCS).
func New(opt Options) *Harness {
	def := DefaultOptions()
	if opt.Insts == 0 {
		opt.Insts = def.Insts
	}
	if opt.Interval == 0 {
		opt.Interval = def.Interval
	}
	if opt.SampleRate == 0 {
		opt.SampleRate = def.SampleRate
	}
	if opt.L2SizeKB == 0 {
		opt.L2SizeKB = def.L2SizeKB
	}
	pool := sched.NewPool(opt.Parallelism)
	return &Harness{
		opt:     opt,
		pool:    pool,
		runs:    sched.NewCache[cmp.Results](pool),
		optRuns: sched.NewCache[optref.Stats](pool),
	}
}

// Options returns the harness options.
func (h *Harness) Options() Options { return h.opt }

// Parallelism reports the worker-pool size actually in use.
func (h *Harness) Parallelism() int { return h.pool.Size() }

// Simulated reports how many simulations actually executed (cache hits
// and singleflight followers excluded).
func (h *Harness) Simulated() int64 { return h.simulated.Load() }

// CachedRuns reports how many unique configurations are memoized.
func (h *Harness) CachedRuns() int { return h.runs.Len() }

func (h *Harness) progress(format string, args ...any) {
	if h.opt.Progress != nil {
		h.opt.Progress(format, args...)
	}
}

// limitWorkloads applies Options.WorkloadLimit.
func (h *Harness) limitWorkloads(ws []workload.Workload) []workload.Workload {
	if h.opt.WorkloadLimit > 0 && len(ws) > h.opt.WorkloadLimit {
		return ws[:h.opt.WorkloadLimit]
	}
	return ws
}

// l2Config builds the shared L2 for a run.
func (h *Harness) l2Config(kind plru.Kind, cores, sizeKB int) cache.Config {
	return cache.Config{
		Name:      "L2",
		SizeBytes: sizeKB * 1024,
		LineBytes: 128,
		Ways:      16,
		Policy:    kind,
		Cores:     cores,
		Seed:      7777,
	}
}

// RunSpec identifies one simulation: a workload on a sizeKB L2 under the
// given replacement policy and optional CPA acronym (empty =
// non-partitioned). It doubles as the run-cache key.
type RunSpec struct {
	W       workload.Workload
	Kind    plru.Kind
	Acronym string
	SizeKB  int
}

func (sp RunSpec) key() string {
	return fmt.Sprintf("%s|%s|%s|%d", sp.W.Name, sp.Kind, sp.Acronym, sp.SizeKB)
}

// isoWorkload is the single-thread workload used for isolation baselines.
func isoWorkload(bench string) workload.Workload {
	return workload.Workload{Name: "iso_" + bench, Benchmarks: []string{bench}}
}

// isoSpec is the isolation-baseline run for a benchmark: alone on a full
// sizeKB LRU L2 (the weighted-speedup denominator; DESIGN.md §4.7).
func isoSpec(bench string, sizeKB int) RunSpec {
	return RunSpec{W: isoWorkload(bench), Kind: plru.LRU, SizeKB: sizeKB}
}

// Run simulates the spec described by its arguments, memoizing the
// result. Concurrent callers of the same configuration share a single
// simulation (singleflight).
func (h *Harness) Run(ctx context.Context, w workload.Workload, kind plru.Kind, acronym string, sizeKB int) (cmp.Results, error) {
	return h.run(ctx, RunSpec{W: w, Kind: kind, Acronym: acronym, SizeKB: sizeKB})
}

func (h *Harness) run(ctx context.Context, sp RunSpec) (cmp.Results, error) {
	key := sp.key()
	return h.runs.Do(ctx, key, func(ctx context.Context) (cmp.Results, error) {
		cfg := cmp.Config{
			Workload: sp.W,
			L2:       h.l2Config(sp.Kind, sp.W.Threads(), sp.SizeKB),
			Params:   cpu.DefaultParams(),
			L1:       cpu.DefaultL1Config(128),
			MaxInsts: h.opt.Insts,
		}
		if sp.Acronym != "" {
			cpaCfg, err := core.ParseAcronym(sp.Acronym)
			if err != nil {
				return cmp.Results{}, err
			}
			cpaCfg.Interval = h.opt.Interval
			cpaCfg.SampleRate = h.opt.SampleRate
			cfg.CPA = &cpaCfg
		}
		sys, err := cmp.New(cfg)
		if err != nil {
			return cmp.Results{}, fmt.Errorf("experiments: %s: %w", key, err)
		}
		res, err := sys.RunContext(ctx)
		if err != nil {
			return cmp.Results{}, err
		}
		h.simulated.Add(1)
		h.progress("ran %-26s throughput=%.3f", key, res.Throughput())
		return res, nil
	})
}

// Prefetch pushes every spec through the worker pool, deduplicating
// against each other and the run cache, and waits for all of them. It
// cancels outstanding work and returns on the first error. Figures call
// it before their serial assembly loops so the expensive simulations run
// in parallel while the assembled output stays deterministic.
func (h *Harness) Prefetch(ctx context.Context, specs []RunSpec) error {
	seen := make(map[string]bool, len(specs))
	uniq := make([]RunSpec, 0, len(specs))
	for _, sp := range specs {
		if k := sp.key(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, sp)
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	for _, sp := range uniq {
		wg.Add(1)
		go func(sp RunSpec) {
			defer wg.Done()
			_, err := h.run(ctx, sp)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				return
			}
			done++
			if h.opt.OnJob != nil {
				h.opt.OnJob(done, len(uniq))
			}
		}(sp)
	}
	wg.Wait()
	return firstErr
}

// IsolationIPC returns the benchmark's IPC running alone on a full
// `sizeKB` LRU L2. The underlying run is memoized like any other.
func (h *Harness) IsolationIPC(ctx context.Context, bench string, sizeKB int) (float64, error) {
	res, err := h.run(ctx, isoSpec(bench, sizeKB))
	if err != nil {
		return 0, err
	}
	return res.PerCore[0].IPC, nil
}

// Summarize converts run results into the paper's three metrics using the
// isolation baselines for the same cache size.
func (h *Harness) Summarize(ctx context.Context, w workload.Workload, res cmp.Results, sizeKB int) (metrics.Summary, error) {
	threads := make([]metrics.Thread, len(res.PerCore))
	for i, c := range res.PerCore {
		iso, err := h.IsolationIPC(ctx, w.Benchmarks[i], sizeKB)
		if err != nil {
			return metrics.Summary{}, err
		}
		threads[i] = metrics.Thread{Benchmark: c.Benchmark, IPC: c.IPC, IsolationIPC: iso}
	}
	return metrics.Compute(threads)
}

// policyOf maps a CPA acronym to the L2 replacement policy it requires.
func policyOf(acronym string) (plru.Kind, error) {
	cfg, err := core.ParseAcronym(acronym)
	if err != nil {
		return 0, err
	}
	return cfg.Policy, nil
}

// PowerInputs assembles the power-model inputs for a finished run.
func (h *Harness) PowerInputs(w workload.Workload, res cmp.Results, kind plru.Kind, partitioned bool, sizeKB int) power.Inputs {
	geom := complexity.Geometry{
		SizeBytes: sizeKB * 1024,
		LineBytes: 128,
		Ways:      16,
		Cores:     w.Threads(),
		TagBits:   47,
		LineBits:  128 * 8,
	}
	extraKB := complexity.StorageKB(kind, geom, partitioned)
	var insts uint64
	for _, c := range res.PerCore {
		insts += c.Insts
	}
	if partitioned {
		// Per-core sampled ATD + SDH registers.
		atdCfg := profiling.Config{
			L2Sets: geom.Sets(), Ways: 16, LineBytes: 128,
			SampleRate: h.opt.SampleRate, Kind: kind, NRUScale: 1,
		}
		atdBits := atdCfg.StorageBits(geom.TagBits) + (16+1)*32 // SDH: 17 32-bit registers
		extraKB += float64(w.Threads()) * float64(atdBits) / 8 / 1024
	}
	return power.Inputs{
		Cores:        w.Threads(),
		SumIPC:       res.Throughput(),
		Cycles:       res.FinishCycles,
		Insts:        insts,
		L2SizeMB:     float64(sizeKB) / 1024,
		L2Accesses:   res.L2Accesses,
		L2Misses:     res.L2Misses,
		MemWrites:    res.MemWrites,
		ATDObserves:  res.ATDObserves,
		ExtraStateKB: extraKB,
	}
}
