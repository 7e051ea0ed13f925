package profiling

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/xrand"
	"repro/pkg/plru"
)

func monCfg(kind plru.Kind, sets, ways, sample int) Config {
	return Config{
		L2Sets:     sets,
		Ways:       ways,
		LineBytes:  64,
		SampleRate: sample,
		Kind:       kind,
		NRUScale:   1.0,
	}
}

func TestConfigValidate(t *testing.T) {
	good := monCfg(plru.LRU, 64, 8, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good
	bad.Kind = plru.Random
	if bad.Validate() == nil {
		t.Error("Random profiling accepted")
	}
	bad = good
	bad.Kind = plru.NRU
	bad.NRUScale = 0
	if bad.Validate() == nil {
		t.Error("zero NRU scale accepted")
	}
	bad = good
	bad.SampleRate = 0
	if bad.Validate() == nil {
		t.Error("zero sample rate accepted")
	}
	bad = good
	bad.LineBytes = 100
	if bad.Validate() == nil {
		t.Error("non-power-of-two line accepted")
	}
}

func TestStorageBitsPaperValue(t *testing.T) {
	// Paper §III: 2MB 16-way L2 with 128B lines has 1024 sets; sampling
	// 1/32 leaves 32 ATD sets; with 47 tag bits (+valid +4 LRU bits) the
	// ATD is 3.25 KB per core.
	cfg := Config{L2Sets: 1024, Ways: 16, LineBytes: 128, SampleRate: 32,
		Kind: plru.LRU}
	bits := cfg.StorageBits(47)
	if kb := float64(bits) / 8 / 1024; kb != 3.25 {
		t.Fatalf("LRU ATD storage = %v KB, want 3.25", kb)
	}
}

// addrForSet builds an address landing in the given L2 set with the given
// per-set sequence number (distinct tags).
func addrForSet(set, seq, sets, line int) uint64 {
	return uint64(seq)*uint64(sets)*uint64(line) + uint64(set)*uint64(line)
}

func TestLRUMonitorExactDistances(t *testing.T) {
	// Single-set ATD: fill A,B,C,D then re-access in reverse fill order.
	m := NewMonitor(monCfg(plru.LRU, 1, 4, 1))
	addrs := make([]uint64, 5)
	for i := range addrs {
		addrs[i] = addrForSet(0, i, 1, 64)
	}
	for i := 0; i < 4; i++ {
		m.Observe(addrs[i]) // 4 misses
	}
	if m.SDH().Register(5) != 4 {
		t.Fatalf("miss register = %d, want 4", m.SDH().Register(5))
	}
	// D is MRU: re-access hits at distance 1.
	m.Observe(addrs[3])
	if m.SDH().Register(1) != 1 {
		t.Fatalf("r1 = %d, want 1", m.SDH().Register(1))
	}
	// A is now the LRU line: distance 4.
	m.Observe(addrs[0])
	if m.SDH().Register(4) != 1 {
		t.Fatalf("r4 = %d, want 1", m.SDH().Register(4))
	}
}

func TestLRUMonitorPredictsRealMissCounts(t *testing.T) {
	// The stack property in action: the SDH's Misses(w) must match the
	// misses measured by an actual w-way LRU cache with the same set
	// count, for every w. This is the foundation the whole CPA rests on.
	const sets = 16
	const ways = 8
	m := NewMonitor(monCfg(plru.LRU, sets, ways, 1))
	rng := xrand.New(31)
	addrs := make([]uint64, 6000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(sets*ways*3)) * 64
	}
	for _, a := range addrs {
		m.Observe(a)
	}
	for w := 1; w <= ways; w++ {
		c := cache.New(cache.Config{
			Name: "ref", SizeBytes: sets * w * 64, LineBytes: 64, Ways: w,
			Policy: plru.LRU, Cores: 1,
		})
		for _, a := range addrs {
			c.Access(0, a)
		}
		got := m.SDH().Misses(w)
		want := c.Stats().TotalMisses()
		if got != want {
			t.Errorf("w=%d: SDH predicts %d misses, real cache had %d", w, got, want)
		}
	}
}

func TestNRUMonitorFigure3Scenario(t *testing.T) {
	// Build the Figure 3 state: fill A,B,C,D (D's fill triggers the
	// used-bit reset, leaving only D set). Then access C (used==0: no
	// SDH update) and D (used==1, U=2: record distance ceil(1.0*2)=2).
	m := NewMonitor(monCfg(plru.NRU, 1, 4, 1))
	addrs := make([]uint64, 4)
	for i := range addrs {
		addrs[i] = addrForSet(0, i, 1, 64)
	}
	for _, a := range addrs {
		m.Observe(a)
	}
	if m.SDH().Register(5) != 4 {
		t.Fatalf("miss register = %d, want 4", m.SDH().Register(5))
	}
	m.Observe(addrs[2]) // C: used bit 0 -> no update
	total := m.SDH().Total()
	if total != 4 {
		t.Fatalf("used==0 hit updated the SDH (total %d, want 4)", total)
	}
	m.Observe(addrs[3]) // D: used bit 1, U=2 -> r2++
	if m.SDH().Register(2) != 1 {
		t.Fatalf("r2 = %d, want 1", m.SDH().Register(2))
	}
}

func TestNRUMonitorScalingFactor(t *testing.T) {
	// Same scenario as above but S=0.5: distance ceil(0.5*2)=1 -> r1.
	cfg := monCfg(plru.NRU, 1, 4, 1)
	cfg.NRUScale = 0.5
	m := NewMonitor(cfg)
	addrs := make([]uint64, 4)
	for i := range addrs {
		addrs[i] = addrForSet(0, i, 1, 64)
	}
	for _, a := range addrs {
		m.Observe(a)
	}
	m.Observe(addrs[2]) // no update (used==0)
	m.Observe(addrs[3]) // U=2, ceil(0.5*2)=1
	if m.SDH().Register(1) != 1 {
		t.Fatalf("r1 = %d, want 1 with S=0.5", m.SDH().Register(1))
	}
}

func TestNRUMonitorCeilRounding(t *testing.T) {
	// Paper: S=0.5, U=7 -> ceil(3.5) = 4. Construct U=7 in an 8-way set.
	cfg := monCfg(plru.NRU, 1, 8, 1)
	cfg.NRUScale = 0.5
	m := NewMonitor(cfg)
	addrs := make([]uint64, 8)
	for i := range addrs {
		addrs[i] = addrForSet(0, i, 1, 64)
	}
	// Fill all 8: the last fill resets, leaving only line 7 used.
	for _, a := range addrs {
		m.Observe(a)
	}
	// Touch lines 0..5 (used==0 hits, no update), raising U to 7.
	for i := 0; i <= 5; i++ {
		m.Observe(addrs[i])
	}
	base := m.SDH().Register(4)
	// Now access line 7 (used==1). U=7 -> ceil(0.5*7)=4.
	m.Observe(addrs[7])
	if m.SDH().Register(4) != base+1 {
		t.Fatalf("r4 = %d, want %d (ceil rounding)", m.SDH().Register(4), base+1)
	}
}

func TestNRUCountColdHitsAblation(t *testing.T) {
	cfg := monCfg(plru.NRU, 1, 4, 1)
	cfg.CountColdHits = true
	m := NewMonitor(cfg)
	addrs := make([]uint64, 4)
	for i := range addrs {
		addrs[i] = addrForSet(0, i, 1, 64)
	}
	for _, a := range addrs {
		m.Observe(a)
	}
	m.Observe(addrs[2]) // used==0 hit -> recorded at distance A=4
	if m.SDH().Register(4) != 1 {
		t.Fatalf("cold hit not recorded at r4: %d", m.SDH().Register(4))
	}
}

func TestBTMonitorEstimates(t *testing.T) {
	m := NewMonitor(monCfg(plru.BT, 1, 4, 1))
	addrs := make([]uint64, 4)
	for i := range addrs {
		addrs[i] = addrForSet(0, i, 1, 64)
	}
	for _, a := range addrs {
		m.Observe(a)
	}
	// Re-access the most recent fill: estimate must be 1 (MRU).
	m.Observe(addrs[3])
	if m.SDH().Register(1) != 1 {
		t.Fatalf("r1 = %d, want 1", m.SDH().Register(1))
	}
}

func TestBTMonitorEstimateBounds(t *testing.T) {
	m := NewMonitor(monCfg(plru.BT, 8, 16, 1))
	rng := xrand.New(3)
	for i := 0; i < 20000; i++ {
		m.Observe(uint64(rng.Intn(8*40)) * 64)
	}
	var hitTotal uint64
	for d := 1; d <= 16; d++ {
		hitTotal += m.SDH().Register(d)
	}
	if hitTotal == 0 {
		t.Fatal("no hits recorded")
	}
	if m.SDH().Total() != m.Observed() {
		t.Fatalf("BT SDH total %d != observed %d (BT records every access)",
			m.SDH().Total(), m.Observed())
	}
}

func TestSetSampling(t *testing.T) {
	// With 1/4 sampling only sets 0, 4, 8, ... are observed.
	const sets = 16
	m := NewMonitor(monCfg(plru.LRU, sets, 4, 4))
	for s := 0; s < sets; s++ {
		m.Observe(addrForSet(s, 0, sets, 64))
	}
	if m.Observed() != 4 {
		t.Fatalf("Observed = %d, want 4 (sets 0,4,8,12)", m.Observed())
	}
}

func TestSampledSDHApproximatesFullSDH(t *testing.T) {
	// The 1/4-sampled monitor's per-access miss-rate curve should be
	// close to the full monitor's (the paper's justification for set
	// sampling). We allow generous tolerance: sampling error on a random
	// stream.
	const sets = 64
	const ways = 8
	full := NewMonitor(monCfg(plru.LRU, sets, ways, 1))
	sampled := NewMonitor(monCfg(plru.LRU, sets, ways, 4))
	rng := xrand.New(13)
	for i := 0; i < 120000; i++ {
		a := uint64(rng.Intn(sets*ways*2)) * 64
		full.Observe(a)
		sampled.Observe(a)
	}
	for w := 1; w <= ways; w++ {
		fr := float64(full.SDH().Misses(w)) / float64(full.Observed())
		sr := float64(sampled.SDH().Misses(w)) / float64(sampled.Observed())
		if diff := fr - sr; diff > 0.05 || diff < -0.05 {
			t.Errorf("w=%d: full miss ratio %.3f vs sampled %.3f", w, fr, sr)
		}
	}
}

func TestMonitorHalve(t *testing.T) {
	m := NewMonitor(monCfg(plru.LRU, 1, 4, 1))
	for i := 0; i < 4; i++ {
		m.Observe(addrForSet(0, i, 1, 64))
	}
	m.Halve()
	if m.SDH().Register(5) != 2 {
		t.Fatalf("miss register after halve = %d, want 2", m.SDH().Register(5))
	}
}

func TestNRUOverestimatesVsScaledDown(t *testing.T) {
	// Structural property from §V-B: S=1.0 estimates distances >= S=0.5
	// estimates for the same stream, so its predicted miss counts at any
	// allocation are >= (more pessimistic).
	run := func(scale float64) *SDH {
		cfg := monCfg(plru.NRU, 16, 8, 1)
		cfg.NRUScale = scale
		m := NewMonitor(cfg)
		rng := xrand.New(47)
		for i := 0; i < 50000; i++ {
			m.Observe(uint64(rng.Intn(16*16)) * 64)
		}
		return m.SDH()
	}
	hi := run(1.0)
	lo := run(0.5)
	for w := 1; w <= 8; w++ {
		if hi.Misses(w) < lo.Misses(w) {
			t.Errorf("w=%d: S=1.0 predicts fewer misses (%d) than S=0.5 (%d)",
				w, hi.Misses(w), lo.Misses(w))
		}
	}
}
