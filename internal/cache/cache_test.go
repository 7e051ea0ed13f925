package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
	"repro/pkg/plru"
)

// smallCfg is a 4-set, 4-way toy cache used by most tests.
func smallCfg(kind plru.Kind, cores int) Config {
	return Config{
		Name:      "test",
		SizeBytes: 4 * 4 * 64,
		LineBytes: 64,
		Ways:      4,
		Policy:    kind,
		Cores:     cores,
		Seed:      1,
	}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg(plru.LRU, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.LineBytes = 48 // not a power of two
	if bad.Validate() == nil {
		t.Error("non-power-of-two line accepted")
	}
	bad = good
	bad.SizeBytes = 1000 // not divisible
	if bad.Validate() == nil {
		t.Error("indivisible size accepted")
	}
	bad = good
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores accepted")
	}
}

func TestConfigSets(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 20, LineBytes: 128, Ways: 16, Policy: plru.LRU, Cores: 2}
	if got := cfg.Sets(); got != 1024 {
		t.Fatalf("2MB/16-way/128B = %d sets, want 1024", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	r := c.Access(0, 0x1000)
	if r.Hit {
		t.Fatal("first access hit")
	}
	r = c.Access(0, 0x1000)
	if !r.Hit {
		t.Fatal("second access missed")
	}
	if c.Stats().TotalHits() != 1 || c.Stats().TotalMisses() != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	c.Access(0, 0x1000)
	if r := c.Access(0, 0x103F); !r.Hit {
		t.Fatal("access within same 64B line missed")
	}
	if r := c.Access(0, 0x1040); r.Hit {
		t.Fatal("access to next line hit")
	}
}

func TestEvictionAfterAssociativityExceeded(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	// 4 sets, 64B lines: addresses with the same (addr/64)%4 collide.
	// Set 0: lines 0, 4, 8, ... -> addresses 0, 256, 512, ...
	for i := 0; i < 4; i++ {
		r := c.Access(0, uint64(i)*256)
		if r.Evicted {
			t.Fatalf("fill %d evicted despite invalid ways", i)
		}
	}
	r := c.Access(0, 4*256)
	if r.Hit || !r.Evicted {
		t.Fatalf("5th distinct line in set: %+v", r)
	}
	// LRU: the first line inserted is the victim.
	if c.Contains(0) {
		t.Error("LRU victim should be the oldest line")
	}
	if !c.Contains(4 * 256) {
		t.Error("newly inserted line missing")
	}
}

func TestOwnerTracking(t *testing.T) {
	c := New(smallCfg(plru.LRU, 2))
	c.Access(0, 0)   // core 0 fills set 0
	c.Access(1, 256) // core 1 fills set 0
	set, _ := c.Index(0)
	if got := c.OwnedCount(set, 0); got != 1 {
		t.Fatalf("core 0 owns %d lines, want 1", got)
	}
	if got := c.OwnedCount(set, 1); got != 1 {
		t.Fatalf("core 1 owns %d lines, want 1", got)
	}
	// A hit by the other core does not change ownership.
	c.Access(1, 0)
	if got := c.OwnedCount(set, 0); got != 1 {
		t.Fatalf("after foreign hit, core 0 owns %d lines, want 1", got)
	}
}

func TestOwnedMaskAndValidMask(t *testing.T) {
	c := New(smallCfg(plru.LRU, 2))
	c.Access(0, 0)
	c.Access(1, 256)
	set, _ := c.Index(0)
	vm := c.ValidMask(set)
	if vm.Count() != 2 {
		t.Fatalf("ValidMask count = %d", vm.Count())
	}
	om0 := c.OwnedMask(set, 0)
	om1 := c.OwnedMask(set, 1)
	if om0&om1 != 0 {
		t.Fatal("owner masks overlap")
	}
	if om0|om1 != vm {
		t.Fatal("owner masks do not cover valid lines")
	}
}

func TestOwnerReturnsMinusOneForInvalid(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	if got := c.Owner(0, 0); got != -1 {
		t.Fatalf("Owner of invalid line = %d, want -1", got)
	}
}

type fixedSelector struct{ way int }

func (s fixedSelector) SelectVictim(c *Cache, set, core int) int { return s.way }

func TestVictimSelectorPluggable(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	c.SetVictimSelector(fixedSelector{way: 2})
	addrs := []uint64{0, 256, 512, 768} // fill set 0
	for _, a := range addrs {
		c.Access(0, a)
	}
	c.Access(0, 1024) // miss -> victim must be way 2 (holding 512)
	if c.Contains(512) {
		t.Error("fixed selector ignored: 512 still present")
	}
	for _, a := range []uint64{0, 256, 768, 1024} {
		if !c.Contains(a) {
			t.Errorf("line %#x unexpectedly evicted", a)
		}
	}
	c.SetVictimSelector(nil) // restore default; must not panic
	c.Access(0, 2048)
}

func TestEvictedOwnerReported(t *testing.T) {
	c := New(smallCfg(plru.LRU, 2))
	for i := 0; i < 4; i++ {
		c.Access(0, uint64(i)*256) // core 0 fills set 0
	}
	r := c.Access(1, 4*256)
	if !r.Evicted || r.EvictedOwner != 0 {
		t.Fatalf("eviction result: %+v, want evicted owner 0", r)
	}
	if c.Stats().EvictedLines[0] != 1 {
		t.Fatalf("EvictedLines[0] = %d", c.Stats().EvictedLines[0])
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New(smallCfg(plru.LRU, 1))
	c.Access(0, 0x40)
	c.ResetStats()
	if c.Stats().TotalAccesses() != 0 {
		t.Fatal("stats not reset")
	}
	if r := c.Access(0, 0x40); !r.Hit {
		t.Fatal("contents lost on stats reset")
	}
}

func TestIndexBijective(t *testing.T) {
	// Property: distinct line addresses map to distinct (set, tag) pairs.
	cfg := smallCfg(plru.LRU, 1)
	c := New(cfg)
	f := func(a, b uint32) bool {
		la := uint64(a) << 6 // distinct lines
		lb := uint64(b) << 6
		if la == lb {
			return true
		}
		sa, ta := c.Index(la)
		sb, tb := c.Index(lb)
		return sa != sb || ta != tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllPoliciesRunWithoutViolations(t *testing.T) {
	// Smoke property for every policy: accesses never corrupt the cache
	// (total valid lines <= capacity, hits are truthful).
	for _, kind := range []plru.Kind{plru.LRU, plru.NRU, plru.BT, plru.Random} {
		c := New(smallCfg(kind, 2))
		rng := xrand.New(uint64(kind) + 100)
		present := map[uint64]bool{} // our own model of "was inserted at some point"
		for i := 0; i < 5000; i++ {
			core := rng.Intn(2)
			addr := uint64(rng.Intn(64)) * 64
			r := c.Access(core, addr)
			if r.Hit && !present[addr>>6] {
				t.Fatalf("%v: hit on never-inserted line %#x", kind, addr)
			}
			present[addr>>6] = true
		}
		// Capacity check.
		totalValid := 0
		for s := 0; s < c.NumSets(); s++ {
			totalValid += c.ValidMask(s).Count()
		}
		if totalValid > c.NumSets()*c.Config().Ways {
			t.Fatalf("%v: %d valid lines exceed capacity", kind, totalValid)
		}
	}
}

func TestHitRateImprovesWithSize(t *testing.T) {
	// Sanity: for a working set between the two sizes, the bigger cache
	// hits more. Exercises the full access path end to end.
	run := func(size int) float64 {
		c := New(Config{Name: "t", SizeBytes: size, LineBytes: 64, Ways: 4,
			Policy: plru.LRU, Cores: 1, Seed: 1})
		rng := xrand.New(7)
		const lines = 96 // 96*64 = 6KB working set
		for i := 0; i < 30000; i++ {
			c.Access(0, uint64(rng.Intn(lines))*64)
		}
		s := c.Stats()
		return float64(s.TotalHits()) / float64(s.TotalAccesses())
	}
	small := run(4 * 1024)
	big := run(16 * 1024)
	if big <= small {
		t.Fatalf("hit rate did not improve with size: %v -> %v", small, big)
	}
}

func TestAccessPanicsOnBadCore(t *testing.T) {
	c := New(smallCfg(plru.LRU, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range core")
		}
	}()
	c.Access(2, 0)
}
