// Package repro's top-level benchmarks regenerate every table and figure
// of the paper at a reduced scale, plus the ablation studies listed in
// DESIGN.md §7. Run a single pass of each with:
//
//	go test -bench=. -benchmem -benchtime=1x .
//
// Full-scale reproductions use cmd/repro (see EXPERIMENTS.md).
package repro

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// benchOptions keeps each figure bench to a few seconds.
func benchOptions() experiments.Options {
	return experiments.Options{
		Insts:         120_000,
		Interval:      40_000,
		SampleRate:    16,
		L2SizeKB:      1024,
		WorkloadLimit: 3,
	}
}

// BenchmarkTable1 regenerates the complexity table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Table1(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates the setup/workload table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Table2(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (non-partitioned LRU/NRU/BT).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		if _, err := h.Fig6(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (the six CPA configurations).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		if _, err := h.Fig7(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Serial and BenchmarkFig7Parallel compare the experiment
// engine at Parallelism 1 versus GOMAXPROCS on the same Fig7 sweep — the
// pair behind BENCH_parallel.json. Output is bit-identical either way;
// only wall-clock differs.
func BenchmarkFig7Serial(b *testing.B) {
	opt := benchOptions()
	opt.Parallelism = 1
	for i := 0; i < b.N; i++ {
		h := experiments.New(opt)
		if _, err := h.Fig7(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Parallel(b *testing.B) {
	opt := benchOptions()
	opt.Parallelism = 0 // GOMAXPROCS
	for i := 0; i < b.N; i++ {
		h := experiments.New(opt)
		if _, err := h.Fig7(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (cache-size sweep).
func BenchmarkFig8(b *testing.B) {
	opt := benchOptions()
	opt.WorkloadLimit = 2
	for i := 0; i < b.N; i++ {
		h := experiments.New(opt)
		if _, err := h.Fig8(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (power and energy).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchOptions())
		if _, err := h.Fig9(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// runOnce simulates one workload/config pair at bench scale and reports
// instructions per second via b.ReportMetric.
func runOnce(b *testing.B, benchmarks []string, kind plru.Kind, acr string, mutate func(*core.Config)) cmp.Results {
	b.Helper()
	w := workload.Workload{Name: "bench", Benchmarks: benchmarks}
	cfg := cmp.Config{
		Workload: w,
		L2: cache.Config{
			Name: "L2", SizeBytes: 1 << 20, LineBytes: 128, Ways: 16,
			Policy: kind, Cores: len(benchmarks), Seed: 1,
		},
		Params:   cpu.DefaultParams(),
		L1:       cpu.DefaultL1Config(128),
		MaxInsts: 150_000,
	}
	if acr != "" {
		cpaCfg, err := core.ParseAcronym(acr)
		if err != nil {
			b.Fatal(err)
		}
		cpaCfg.Interval = 50_000
		cpaCfg.SampleRate = 16
		if mutate != nil {
			mutate(&cpaCfg)
		}
		cfg.CPA = &cpaCfg
	}
	sys, err := cmp.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys.Run()
}

// BenchmarkSimulator measures raw simulation speed per policy.
func BenchmarkSimulator(b *testing.B) {
	for _, kind := range []plru.Kind{plru.LRU, plru.NRU, plru.BT, plru.Random} {
		b.Run(kind.String(), func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"twolf", "gap"}, kind, "", nil)
				for _, c := range res.PerCore {
					insts += c.Insts
				}
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
		})
	}
}

// BenchmarkAblationScalingFactor sweeps the NRU eSDH scaling factor
// beyond the paper's three values (DESIGN.md §7).
func BenchmarkAblationScalingFactor(b *testing.B) {
	for _, acr := range []string{"M-1.0N", "M-0.9N", "M-0.75N", "M-0.6N", "M-0.5N"} {
		b.Run(acr, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"twolf", "swim"}, plru.NRU, acr, nil)
				tp = res.Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}

// BenchmarkAblationSampling sweeps the ATD set-sampling rate (the paper
// fixes 1/32).
func BenchmarkAblationSampling(b *testing.B) {
	for _, rate := range []int{1, 8, 32, 128} {
		b.Run(rateName(rate), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"twolf", "swim"}, plru.LRU, "M-L",
					func(c *core.Config) { c.SampleRate = rate })
				tp = res.Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}

func rateName(r int) string {
	switch r {
	case 1:
		return "full"
	case 8:
		return "1of8"
	case 32:
		return "1of32"
	default:
		return "1of128"
	}
}

// BenchmarkAblationLookahead compares the greedy Lookahead allocator with
// the optimal MinMisses DP.
func BenchmarkAblationLookahead(b *testing.B) {
	for _, greedy := range []bool{false, true} {
		name := "MinMissesDP"
		if greedy {
			name = "LookaheadGreedy"
		}
		b.Run(name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"vpr", "art"}, plru.LRU, "M-L",
					func(c *core.Config) { c.UseLookahead = greedy })
				tp = res.Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}

// BenchmarkAblationColdHits quantifies the paper's "no SDH update on
// used==0 hits" simplification (DESIGN.md §4.1).
func BenchmarkAblationColdHits(b *testing.B) {
	for _, count := range []bool{false, true} {
		name := "paperDropsColdHits"
		if count {
			name = "countColdHits"
		}
		b.Run(name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"twolf", "swim"}, plru.NRU, "M-0.75N",
					func(c *core.Config) { c.CountColdHits = count })
				tp = res.Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}

// BenchmarkAblationInterval sweeps the repartition interval.
func BenchmarkAblationInterval(b *testing.B) {
	for _, iv := range []uint64{10_000, 50_000, 250_000} {
		b.Run(intervalName(iv), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"twolf", "swim"}, plru.LRU, "M-L",
					func(c *core.Config) { c.Interval = iv })
				tp = res.Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}

func intervalName(iv uint64) string {
	switch iv {
	case 10_000:
		return "10k"
	case 50_000:
		return "50k"
	default:
		return "250k"
	}
}

// BenchmarkAblationGoals compares the partitioning objectives (the
// FlexDCP-style extensions of DESIGN.md §7) on a contended pair.
func BenchmarkAblationGoals(b *testing.B) {
	goals := []struct {
		name string
		goal core.Goal
		qos  float64
	}{
		{"MinMisses", core.GoalMinMisses, 0},
		{"MaxThroughput", core.GoalThroughput, 0},
		{"FairSlowdown", core.GoalFair, 0},
		{"QoS1.1x", core.GoalQoS, 1.1},
	}
	for _, g := range goals {
		b.Run(g.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"art", "twolf"}, plru.LRU, "M-L",
					func(c *core.Config) { c.Goal = g.goal; c.QoSTarget = g.qos })
				tp = res.Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}

// BenchmarkAblationProfiling compares ATD-based profiling (the paper's
// scheme) with Suh-style in-cache way counters (§VI related work).
func BenchmarkAblationProfiling(b *testing.B) {
	for _, inCache := range []bool{false, true} {
		name := "ATD"
		if inCache {
			name = "InCacheWayCounters"
		}
		b.Run(name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"twolf", "swim"}, plru.LRU, "M-L",
					func(c *core.Config) { c.InCacheProfiling = inCache })
				tp = res.Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}

// BenchmarkAblationMemoryModel compares the paper's constant 250-cycle
// memory penalty with the banked open-row DRAM substrate.
func BenchmarkAblationMemoryModel(b *testing.B) {
	for _, useDRAM := range []bool{false, true} {
		name := "constant250"
		if useDRAM {
			name = "bankedDRAM"
		}
		b.Run(name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				w := workload.Workload{Name: "bench", Benchmarks: []string{"mcf", "swim"}}
				cfg := cmp.Config{
					Workload: w,
					L2: cache.Config{
						Name: "L2", SizeBytes: 1 << 20, LineBytes: 128, Ways: 16,
						Policy: plru.LRU, Cores: 2, Seed: 1,
					},
					Params:   cpu.DefaultParams(),
					L1:       cpu.DefaultL1Config(128),
					MaxInsts: 150_000,
				}
				if useDRAM {
					dcfg := dram.DefaultConfig()
					cfg.DRAM = &dcfg
				}
				sys, err := cmp.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tp = sys.Run().Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}

// BenchmarkAblationEnforcement compares the three enforcement mechanisms
// on the same workload and policy-appropriate configurations.
func BenchmarkAblationEnforcement(b *testing.B) {
	cases := []struct {
		name string
		kind plru.Kind
		acr  string
	}{
		{"counters", plru.LRU, "C-L"},
		{"masks", plru.LRU, "M-L"},
		{"updown", plru.BT, "M-BT"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				res := runOnce(b, []string{"vpr", "art"}, tc.kind, tc.acr, nil)
				tp = res.Throughput()
			}
			b.ReportMetric(tp, "throughput")
		})
	}
}
