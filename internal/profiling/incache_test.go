package profiling

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/xrand"
	"repro/pkg/plru"
)

func TestInCacheProfilerRecordsHitsAndMisses(t *testing.T) {
	p := NewInCacheProfiler(2, 4)
	p.OnCacheAccess(0, 0, true, 1)
	p.OnCacheAccess(0, 0, true, 4)
	p.OnCacheAccess(1, 0, false, 5)
	if p.SDH(0).Register(1) != 1 || p.SDH(0).Register(4) != 1 {
		t.Fatalf("hit registers wrong: %v %v", p.SDH(0).Register(1), p.SDH(0).Register(4))
	}
	if p.SDH(1).Register(5) != 1 {
		t.Fatal("miss register not incremented")
	}
	if p.Observed() != 3 {
		t.Fatalf("Observed = %d", p.Observed())
	}
}

func TestInCacheProfilerIgnoresBadInputs(t *testing.T) {
	p := NewInCacheProfiler(1, 4)
	p.OnCacheAccess(-1, 0, true, 1) // out-of-range core
	p.OnCacheAccess(5, 0, true, 1)
	p.OnCacheAccess(0, 0, true, 0) // non-LRU dist sentinel
	if p.Observed() != 0 {
		t.Fatalf("bad inputs were recorded: %d", p.Observed())
	}
}

func TestInCacheProfilerHalve(t *testing.T) {
	p := NewInCacheProfiler(1, 2)
	for i := 0; i < 4; i++ {
		p.OnCacheAccess(0, 0, false, 3)
	}
	p.Halve()
	if p.SDH(0).Register(3) != 2 {
		t.Fatalf("halve failed: %d", p.SDH(0).Register(3))
	}
}

// TestInCacheVsATDOnSingleThread verifies the key accuracy property: for
// a SINGLE thread (no pollution) the in-cache profile and the full ATD
// profile measure the same stream the same way.
func TestInCacheVsATDOnSingleThread(t *testing.T) {
	const sets, ways = 32, 8
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: sets * ways * 64,
		LineBytes: 64, Ways: ways, Policy: plru.LRU, Cores: 1})
	inCache := NewInCacheProfiler(1, ways)
	l2.SetObserver(inCache)
	atd := NewMonitor(Config{L2Sets: sets, Ways: ways, LineBytes: 64,
		SampleRate: 1, Kind: plru.LRU})

	rng := xrand.New(5)
	for i := 0; i < 60000; i++ {
		addr := uint64(rng.Intn(sets*ways*2)) * 64
		atd.Observe(addr)
		l2.Access(0, addr)
	}
	for w := 1; w <= ways; w++ {
		a := atd.SDH().Misses(w)
		c := inCache.SDH(0).Misses(w)
		if a != c {
			t.Errorf("w=%d: ATD predicts %d misses, in-cache %d (must match when unshared)",
				w, a, c)
		}
	}
}

// TestInCachePollutedBySharer demonstrates the known weakness: with a
// co-runner thrashing the shared cache, the in-cache profile of the
// victim thread inflates its predicted misses relative to an ATD, which
// isolates it.
func TestInCachePollutedBySharer(t *testing.T) {
	const sets, ways = 32, 8
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: sets * ways * 64,
		LineBytes: 64, Ways: ways, Policy: plru.LRU, Cores: 2})
	inCache := NewInCacheProfiler(2, ways)
	l2.SetObserver(inCache)
	atd := NewMonitor(Config{L2Sets: sets, Ways: ways, LineBytes: 64,
		SampleRate: 1, Kind: plru.LRU})

	rng := xrand.New(7)
	stream := uint64(1 << 40)
	for i := 0; i < 60000; i++ {
		// Thread 0: modest working set (2 lines/set) it keeps re-using.
		addr := uint64(rng.Intn(sets*2)) * 64
		atd.Observe(addr)
		l2.Access(0, addr)
		// Thread 1: streaming polluter.
		l2.Access(1, stream)
		stream += 64
	}
	// At the working set's natural size the ATD sees almost no misses...
	atdRatio := float64(atd.SDH().Misses(4)) / float64(atd.Observed())
	// ...while the in-cache profile, squeezed by the streamer, reports
	// losses.
	icTotal := inCache.SDH(0).Total()
	icRatio := float64(inCache.SDH(0).Misses(4)) / float64(icTotal)
	if atdRatio > 0.05 {
		t.Fatalf("ATD should isolate the thread: miss ratio %.3f", atdRatio)
	}
	if icRatio <= atdRatio {
		t.Fatalf("in-cache profile (%.3f) should be polluted above the ATD's (%.3f)",
			icRatio, atdRatio)
	}
}

func TestRequiresLRU(t *testing.T) {
	if RequiresLRU(plru.LRU) {
		t.Error("LRU flagged as unsupported")
	}
	if !RequiresLRU(plru.NRU) || !RequiresLRU(plru.BT) {
		t.Error("non-LRU not flagged")
	}
}
