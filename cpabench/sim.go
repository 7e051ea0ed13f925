package main

import (
	"context"
	_ "embed"
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// fig7Golden is the Figure 7 CSV at the sweep size below. Every sweep's
// CSV must match it byte for byte: the sweep is deterministic at any
// parallelism.
//
//go:embed golden/fig7.csv
var fig7Golden string

// fig7Options is the Figure 7 sweep at the CI size the opt-scoreboard
// lane uses: 49 simulations.
func fig7Options(parallelism int) experiments.Options {
	return experiments.Options{
		Insts: 150_000, Interval: 50_000, SampleRate: 16, WorkloadLimit: 2,
		L2SizeKB: 2048, Parallelism: parallelism,
	}
}

// fig7Threads counts the simulated threads of one Figure 7 sweep: each
// workload under each configuration, plus one isolation run per distinct
// benchmark.
func fig7Threads(opt experiments.Options) (int, error) {
	threads := 0
	iso := map[string]bool{}
	for _, cores := range []int{2, 4, 8} {
		ws, err := workload.ByThreads(cores)
		if err != nil {
			return 0, err
		}
		for _, w := range ws[:min(len(ws), opt.WorkloadLimit)] {
			threads += len(experiments.Fig7Configs) * w.Threads()
			for _, b := range w.Benchmarks {
				iso[b] = true
			}
		}
	}
	return threads + len(iso), nil
}

// sweepResult is one Figure 7 sweep.
type sweepResult struct {
	wall       time.Duration
	cpu        time.Duration // this process's CPU over the sweep
	sims       int
	minstPerS  float64
	rows, diff int // CSV data rows compared, rows differing from the golden
}

func runSweep(ctx context.Context, parallelism int) (sweepResult, error) {
	opt := fig7Options(parallelism)
	threads, err := fig7Threads(opt)
	if err != nil {
		return sweepResult{}, err
	}
	cpu0 := processCPU()
	t0 := time.Now()
	h := experiments.New(opt)
	data, err := h.Fig7(ctx)
	if err != nil {
		return sweepResult{}, err
	}
	r := sweepResult{wall: time.Since(t0), cpu: processCPU() - cpu0, sims: int(h.Simulated())}
	r.minstPerS = float64(threads) * float64(opt.Insts) / 1e6 / r.wall.Seconds()
	r.rows, r.diff = diffCSV(data.CSV(), fig7Golden)
	return r, nil
}

// check counts the sweep's CSV rows as attempted and the rows that differ
// from the golden as failed, faulting the run on any difference.
func (sw sweepResult) check(rep *report) {
	rep.res.Attempted += uint64(sw.rows)
	rep.res.Failed += uint64(sw.diff)
	if sw.diff > 0 {
		rep.fault("fig7 CSV differs from golden/fig7.csv in %d lines", sw.diff)
	}
}

// utilization is the sweep's process CPU over wall time × parallelism.
func (sw sweepResult) utilization(parallelism int) float64 {
	return sw.cpu.Seconds() / (sw.wall.Seconds() * float64(parallelism))
}

// diffCSV compares got with want line by line and returns the number of
// data rows in want and how many lines differ (missing or extra lines
// count as differing).
func diffCSV(got, want string) (rows, diff int) {
	g := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	w := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			diff++
		}
	}
	if got != want && diff == 0 {
		diff = 1 // same lines, different line endings
	}
	return len(w) - 1, diff
}

// probeSpecs is the short simulation probe kv runs take for
// sim_minst_per_s: the two-core and four-core Figure 7 workloads under
// M-0.75N, which run the pseudo-LRU profiler and MinMisses.
func probeSpecs() ([]experiments.RunSpec, int, error) {
	const acr = "M-0.75N"
	cpa, err := core.ParseAcronym(acr)
	if err != nil {
		return nil, 0, err
	}
	var specs []experiments.RunSpec
	threads := 0
	for _, cores := range []int{2, 4} {
		ws, err := workload.ByThreads(cores)
		if err != nil {
			return nil, 0, err
		}
		specs = append(specs, experiments.RunSpec{W: ws[0], Kind: cpa.Policy, Acronym: acr, SizeKB: 2048})
		threads += cores
	}
	return specs, threads, nil
}

// simProbe runs the probe on a fresh harness and returns its M simulated
// instructions per second.
func simProbe(ctx context.Context, parallelism int) (float64, error) {
	specs, threads, err := probeSpecs()
	if err != nil {
		return 0, err
	}
	opt := fig7Options(parallelism)
	t0 := time.Now()
	if err := experiments.New(opt).Prefetch(ctx, specs); err != nil {
		return 0, err
	}
	return float64(threads) * float64(opt.Insts) / 1e6 / time.Since(t0).Seconds(), nil
}

// simSetup times the harness's work before its first simulation runs:
// building the harness and the first Figure 7 system (caches, cores,
// profiling monitors, trace generators), as the harness configures it.
func simSetup(parallelism int) (time.Duration, error) {
	opt := fig7Options(parallelism)
	t0 := time.Now()
	experiments.New(opt)
	ws, err := workload.ByThreads(2)
	if err != nil {
		return 0, err
	}
	cpa, err := core.ParseAcronym(experiments.Fig7Configs[0])
	if err != nil {
		return 0, err
	}
	cpa.Interval, cpa.SampleRate = opt.Interval, opt.SampleRate
	sys, err := cmp.New(cmp.Config{
		Workload: ws[0],
		L2: cache.Config{Name: "L2", SizeBytes: opt.L2SizeKB * 1024, LineBytes: 128, Ways: 16,
			Policy: cpa.Policy, Cores: ws[0].Threads(), Seed: 7777},
		Params:   cpu.DefaultParams(),
		L1:       cpu.DefaultL1Config(128),
		MaxInsts: opt.Insts,
		CPA:      &cpa,
	})
	if err != nil || sys == nil {
		return 0, fmt.Errorf("build first fig7 system: %w", err)
	}
	return time.Since(t0), nil
}
