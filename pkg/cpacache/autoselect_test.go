package cpacache

import (
	"strings"
	"testing"

	"repro/pkg/plru"
)

// scanWorkload is the canonical adversary for recency-only replacement: a
// hot pool reused forever plus a stream of one-shot scan keys. LRU keeps
// evicting the hot pool; ARC's two-tier structure protects it. next()
// must be the shared RNG so replays across caches stay identical.
func scanKey(next func() uint64, hot []uint64, scanCtr *uint64) uint64 {
	if next()%10 < 4 {
		return hot[next()%uint64(len(hot))]
	}
	*scanCtr++
	return 1<<32 + *scanCtr
}

// access drives one get-miss-then-set step, the flow the tag directory
// (and therefore the candidate scoring) counts exactly once.
func access(c *Cache[uint64, uint64], key uint64) {
	if _, ok := c.Get(key); !ok {
		c.Set(key, key)
	}
}

// TestAutoSelectConvergesOnScanResistantPolicy is the end-to-end
// auto-selection acceptance test: a cache born on LRU with ARC as the
// only alternative candidate, driven with a scan-heavy workload, must
// switch to ARC within a bounded number of rebalance windows, never
// switch back, emit a well-formed PolicySwitchEvent, and finish the run
// with a hit rate within one point of the best static policy.
func TestAutoSelectConvergesOnScanResistantPolicy(t *testing.T) {
	var events []PolicySwitchEvent
	build := func(extra ...Option) *Cache[uint64, uint64] {
		c, err := New[uint64, uint64](append([]Option{
			WithShards(1), WithSets(64), WithWays(8), WithPartitions(1),
			WithSeed(7), WithProfileSampling(1),
			WithRebalanceHysteresis(0.05, 512),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	adaptive := build(
		WithPolicy(plru.LRU),
		WithPolicyAutoSelect(plru.ARC),
		WithMetricsSink(MetricsSink{PolicySwitch: func(ev PolicySwitchEvent) { events = append(events, ev) }}),
	)
	staticLRU := build(WithPolicy(plru.LRU))
	staticARC := build(WithPolicy(plru.ARC))
	// Identical key placement across all three caches (white box), so the
	// hit-rate comparison is apples to apples.
	staticLRU.seed = adaptive.seed
	staticARC.seed = adaptive.seed
	caches := []*Cache[uint64, uint64]{adaptive, staticLRU, staticARC}

	hot := make([]uint64, 256)
	for i := range hot {
		hot[i] = uint64(i)
	}
	rng := uint64(42)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var scanCtr uint64

	const (
		windows     = 20
		perWindow   = 30_000
		convergeBy  = 6  // switch must land within this many windows
		measureFrom = 15 // final-phase hit-rate measurement window
	)
	switchedAt := -1
	var before [3]TenantStats
	for w := 0; w < windows; w++ {
		if w == measureFrom {
			for i, c := range caches {
				before[i] = c.Stats()[0]
			}
		}
		for i := 0; i < perWindow; i++ {
			key := scanKey(next, hot, &scanCtr)
			for _, c := range caches {
				access(c, key)
			}
		}
		if _, err := adaptive.Rebalance(); err != nil {
			t.Fatal(err)
		}
		pol := adaptive.Snapshot().Policies[0]
		if switchedAt < 0 && pol == plru.ARC {
			switchedAt = w
		}
		if switchedAt >= 0 && pol != plru.ARC {
			t.Fatalf("window %d: selector flipped back to %v after settling on ARC at window %d", w, pol, switchedAt)
		}
	}
	if switchedAt < 0 || switchedAt >= convergeBy {
		t.Fatalf("selector settled on ARC at window %d, want within [0,%d)", switchedAt, convergeBy)
	}

	if len(events) != 1 {
		t.Fatalf("got %d PolicySwitch events, want exactly 1 (switch + no churn)", len(events))
	}
	ev := events[0]
	if ev.Tenant != 0 || ev.From != plru.LRU || ev.To != plru.ARC {
		t.Fatalf("switch event = %+v, want tenant 0 LRU->ARC", ev)
	}
	if ev.WindowAccesses < 512 {
		t.Fatalf("switch event window accesses = %d, below the minSamples floor 512", ev.WindowAccesses)
	}
	if len(ev.Candidates) != 2 || len(ev.ShadowHits) != 2 {
		t.Fatalf("switch event candidates %v / shadow hits %v, want 2 of each", ev.Candidates, ev.ShadowHits)
	}
	snap := adaptive.Snapshot()
	if snap.PolicySwitches != 1 {
		t.Fatalf("Snapshot.PolicySwitches = %d, want 1", snap.PolicySwitches)
	}
	if got := adaptive.TenantPolicies(); len(got) != 1 || got[0] != plru.ARC {
		t.Fatalf("TenantPolicies = %v, want [ARC]", got)
	}

	rate := func(i int) float64 {
		s := caches[i].Stats()[0]
		s.Hits -= before[i].Hits
		s.Misses -= before[i].Misses
		return s.HitRate()
	}
	adaptiveRate, lruRate, arcRate := rate(0), rate(1), rate(2)
	best := lruRate
	if arcRate > best {
		best = arcRate
	}
	if arcRate <= lruRate {
		t.Fatalf("workload is not ARC-favoring (ARC %.4f <= LRU %.4f); the convergence claim is vacuous", arcRate, lruRate)
	}
	if adaptiveRate < best-0.01 {
		t.Fatalf("adaptive final hit rate %.4f more than 1 point below best static %.4f (LRU %.4f, ARC %.4f)",
			adaptiveRate, best, lruRate, arcRate)
	}
}

// TestAutoSelectMatchesBaseBeforeSwitch pins that auto-selection is
// semantically invisible until a switch happens: with no Rebalance call,
// an auto-select cache and a static base-policy cache sharing one hash
// seed must hold identical contents after an arbitrary workload (the
// victim routing goes to the warm base instance, which sees exactly the
// stream a standalone instance would).
func TestAutoSelectMatchesBaseBeforeSwitch(t *testing.T) {
	build := func(extra ...Option) *Cache[uint64, uint64] {
		c, err := New[uint64, uint64](append([]Option{
			WithShards(2), WithSets(16), WithWays(8), WithPartitions(2),
			WithPolicy(plru.LRU), WithSeed(3),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	auto := build(WithPolicyAutoSelect(plru.AWRP, plru.ARC))
	static := build()
	static.seed = auto.seed

	rng := uint64(11)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 50_000; i++ {
		tenant := int(next() % 2)
		key := next() % 600
		switch next() % 3 {
		case 0:
			va, oka := auto.GetTenant(tenant, key)
			vs, oks := static.GetTenant(tenant, key)
			if oka != oks || va != vs {
				t.Fatalf("step %d: Get(%d,%d) = (%d,%v) auto vs (%d,%v) static", i, tenant, key, va, oka, vs, oks)
			}
		case 1:
			auto.SetTenant(tenant, key, key*3)
			static.SetTenant(tenant, key, key*3)
		default:
			if ga, gs := auto.Delete(key), static.Delete(key); ga != gs {
				t.Fatalf("step %d: Delete(%d) = %v auto vs %v static", i, key, ga, gs)
			}
		}
	}
	if auto.Len() != static.Len() {
		t.Fatalf("Len: auto %d vs static %d", auto.Len(), static.Len())
	}
	for k := uint64(0); k < 600; k++ {
		va, oka := auto.Get(k)
		vs, oks := static.Get(k)
		if oka != oks || va != vs {
			t.Fatalf("final contents diverge at key %d: (%d,%v) vs (%d,%v)", k, va, oka, vs, oks)
		}
	}
}

// TestWithPolicyAutoSelectValidation covers the option's error surface
// and candidate-list normalization.
func TestWithPolicyAutoSelectValidation(t *testing.T) {
	if _, err := New[int, int](WithWays(6), WithPolicy(plru.LRU), WithPolicyAutoSelect(plru.BT)); err == nil ||
		!strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("BT candidate on 6 ways: err = %v, want power-of-two complaint", err)
	}
	if _, err := New[int, int](WithPolicy(plru.LRU), WithPolicyAutoSelect(plru.LRU)); err == nil ||
		!strings.Contains(err.Error(), "two distinct") {
		t.Fatalf("single candidate: err = %v, want two-distinct complaint", err)
	}
	if _, err := New[int, int](WithPolicyAutoSelect(plru.Kind(250))); err == nil ||
		!strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown kind: err = %v, want unknown-candidate complaint", err)
	}

	// Defaults on a power-of-two geometry: every kind but Random, base
	// included, every tenant starting on the base policy.
	c, err := New[int, int](WithWays(8), WithPolicy(plru.NRU), WithPartitions(2), WithPolicyAutoSelect())
	if err != nil {
		t.Fatal(err)
	}
	want := []plru.Kind{plru.LRU, plru.NRU, plru.BT, plru.AWRP, plru.ARC}
	if len(c.activeKinds) != len(want) {
		t.Fatalf("default candidates = %v, want %v", c.activeKinds, want)
	}
	for i, k := range want {
		if c.activeKinds[i] != k {
			t.Fatalf("default candidates = %v, want %v", c.activeKinds, want)
		}
	}
	for _, p := range c.TenantPolicies() {
		if p != plru.NRU {
			t.Fatalf("TenantPolicies before any window = %v, want all NRU", c.TenantPolicies())
		}
	}
	// Non-power-of-two ways: BT silently dropped from the defaults.
	c2, err := New[int, int](WithWays(6), WithPolicy(plru.LRU), WithPolicyAutoSelect())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range c2.activeKinds {
		if k == plru.BT {
			t.Fatalf("default candidates on 6 ways include BT: %v", c2.activeKinds)
		}
	}
}
