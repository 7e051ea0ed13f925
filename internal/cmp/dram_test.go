package cmp

import (
	"testing"

	"repro/internal/dram"
	"repro/pkg/plru"
)

func TestDRAMModeRuns(t *testing.T) {
	cfg := testConfig(t, []string{"twolf", "swim"}, plru.LRU, "M-L", 512)
	dcfg := dram.DefaultConfig()
	cfg.DRAM = &dcfg
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.Throughput() <= 0 {
		t.Fatal("no throughput under DRAM model")
	}
	mem := sys.Memory()
	if mem == nil || mem.Stats().Accesses == 0 {
		t.Fatal("DRAM model saw no accesses")
	}
	// swim streams: its misses should find open rows often enough that
	// the overall row-hit rate is meaningful.
	if r := mem.RowHitRate(); r <= 0 || r >= 1 {
		t.Fatalf("row-hit rate %.3f out of (0,1)", r)
	}
}

func TestDRAMRejectsBadConfig(t *testing.T) {
	cfg := testConfig(t, []string{"gzip", "gcc"}, plru.LRU, "", 512)
	cfg.DRAM = &dram.Config{Banks: 3, RowBytes: 8192}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid DRAM config accepted")
	}
}

func TestDRAMStreamingCheaperThanPointerChasing(t *testing.T) {
	// Streaming misses (swim) ride open rows; random-row misses (mcf)
	// pay the precharge+activate path. With everything else equal, the
	// DRAM model must price swim's average miss below mcf's.
	avgLat := func(bench string) float64 {
		cfg := testConfig(t, []string{bench}, plru.LRU, "", 512)
		cfg.MaxInsts = 300_000
		dcfg := dram.DefaultConfig()
		cfg.DRAM = &dcfg
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		st := sys.Memory().Stats()
		if st.Accesses == 0 {
			t.Fatalf("%s: no memory accesses", bench)
		}
		hits := float64(st.RowHits) / float64(st.Accesses)
		return hits
	}
	if swim, mcf := avgLat("swim"), avgLat("mcf"); swim <= mcf {
		t.Fatalf("swim row-hit rate %.3f should exceed mcf's %.3f", swim, mcf)
	}
}

func TestConstantModeUnchangedByDRAMPackage(t *testing.T) {
	// Without cfg.DRAM the simulation must behave exactly as before the
	// memory model existed; covered in spirit by TestGoldenDeterminism,
	// asserted here for the Memory() accessor.
	cfg := testConfig(t, []string{"gzip", "gcc"}, plru.LRU, "", 512)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Memory() != nil {
		t.Fatal("constant-latency system should have no DRAM model")
	}
}
