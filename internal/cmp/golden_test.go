package cmp

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// TestGoldenDeterminism pins exact end-to-end results for three
// representative configurations. These values lock down cross-platform,
// cross-run determinism of the entire stack — trace generation, branch
// prediction, both cache levels, profiling, partitioning and timing. If
// a change to any component is *intended* to alter simulation behavior,
// regenerate the constants and say so in the commit; an unintended
// change here is a regression.
func TestGoldenDeterminism(t *testing.T) {
	cases := []struct {
		kind       plru.Kind
		acr        string
		throughput float64
		misses     uint64
		finish     float64
	}{
		{plru.LRU, "", 0.5701045653, 10517, 744235.4000},
		{plru.NRU, "M-0.75N", 0.5737934445, 10338, 734087.7500},
		{plru.BT, "M-BT", 0.5777975147, 10177, 724835.4000},
	}
	for _, tc := range cases {
		cfg := Config{
			Workload: workload.Workload{Name: "golden", Benchmarks: []string{"twolf", "swim"}},
			L2: cache.Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 128,
				Ways: 16, Policy: tc.kind, Cores: 2, Seed: 42},
			Params:   cpu.DefaultParams(),
			L1:       cpu.DefaultL1Config(128),
			MaxInsts: 200_000,
		}
		if tc.acr != "" {
			c, err := core.ParseAcronym(tc.acr)
			if err != nil {
				t.Fatal(err)
			}
			c.Interval = 50_000
			c.SampleRate = 8
			cfg.CPA = &c
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run()
		name := tc.kind.String() + "/" + tc.acr
		if math.Abs(res.Throughput()-tc.throughput) > 1e-9 {
			t.Errorf("%s: throughput %.10f, golden %.10f", name, res.Throughput(), tc.throughput)
		}
		if res.L2Misses != tc.misses {
			t.Errorf("%s: misses %d, golden %d", name, res.L2Misses, tc.misses)
		}
		if math.Abs(res.FinishCycles-tc.finish) > 1e-4 {
			t.Errorf("%s: finish %.4f, golden %.4f", name, res.FinishCycles, tc.finish)
		}
	}
}
