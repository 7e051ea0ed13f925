package cpacache

import (
	"fmt"
	"reflect"
	"testing"

	"repro/pkg/plru"
)

// mtfProfile is the reference stack-distance profiler: per (sampled set,
// tenant) a true-LRU stack of key hashes updated move-to-front, the
// textbook form of the paper's ATD histogram. The tag directory must give
// the same curves within one window.
type mtfProfile struct {
	ways   int
	stacks map[[2]int][]uint64 // (set, tenant) -> hashes, MRU first
	hist   [][]uint64          // [tenant][d-1] hits at distance d; [tenant][ways] misses
}

func newMTFProfile(ways, tenants int) *mtfProfile {
	p := &mtfProfile{ways: ways, stacks: map[[2]int][]uint64{}, hist: make([][]uint64, tenants)}
	for t := range p.hist {
		p.hist[t] = make([]uint64, ways+1)
	}
	return p
}

func (p *mtfProfile) record(set, tenant int, h uint64) {
	st := p.stacks[[2]int{set, tenant}]
	pos := -1
	for i, x := range st {
		if x == h {
			pos = i
			break
		}
	}
	if pos < 0 {
		p.hist[tenant][p.ways]++
		if len(st) < p.ways {
			st = append(st, 0)
		}
		pos = len(st) - 1
	} else {
		p.hist[tenant][pos]++
	}
	copy(st[1:pos+1], st[:pos])
	st[0] = h
	p.stacks[[2]int{set, tenant}] = st
}

func (p *mtfProfile) curves() [][]uint64 {
	out := make([][]uint64, len(p.hist))
	for t, h := range p.hist {
		out[t] = make([]uint64, p.ways+1)
		var total uint64
		for _, n := range h {
			total += n
		}
		cum := uint64(0)
		out[t][0] = total
		for w := 1; w <= p.ways; w++ {
			cum += h[w-1]
			out[t][w] = total - cum
		}
	}
	return out
}

// TestATDCurvesMatchMoveToFront runs one window of a random stream through
// the tag directory and through the move-to-front reference: the curves
// must be equal, whether LRU runs alone, shares its instance with the
// auto-select candidates, or is appended beside them.
func TestATDCurvesMatchMoveToFront(t *testing.T) {
	const (
		sets, ways, tenants, every = 16, 8, 3, 4
	)
	for _, kinds := range [][]plru.Kind{
		nil,
		{plru.LRU, plru.ARC, plru.NRU},
		{plru.BT, plru.AWRP},
	} {
		t.Run(fmt.Sprint(kinds), func(t *testing.T) {
			a := newATD(kinds, sets, ways, tenants, every, 1)
			ref := newMTFProfile(ways, tenants)
			rng := uint64(2024)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < 50_000; i++ {
				set, tenant := int(next()%sets), int(next()%tenants)
				// 20 keys per (set, tenant) against 8 ways, skewed so
				// every stack distance and the miss bin all fill.
				k := next() % 20
				if next()%2 == 0 {
					k %= 6
				}
				h := uint64(set)<<40 | uint64(tenant)<<32 | k*0x9E3779B9
				a.access(set, tenant, h)
				if set%every == 0 {
					ref.record(set, tenant, h)
				}
			}
			got := make([][]uint64, tenants)
			for tn := range got {
				got[tn] = make([]uint64, ways+1)
			}
			a.addCurves(got)
			want := ref.curves()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ATD curves %v\nwant move-to-front %v", got, want)
			}
			for tn := range want {
				if want[tn][0] == 0 || want[tn][ways] == want[tn][0] || want[tn][1] == want[tn][ways] {
					t.Fatalf("tenant %d curve %v is degenerate; the comparison is vacuous", tn, want[tn])
				}
			}
		})
	}
}

// TestATDResidencySurvivesRebalance pins the window rule: Rebalance
// resets the counters but not the directory's residency, so a loop that
// was warm in the previous window takes no cold misses in the next.
func TestATDResidencySurvivesRebalance(t *testing.T) {
	c := single(t, 8, 2, plru.LRU)
	cycle := func() {
		for round := 0; round < 50; round++ {
			for i := 0; i < 6; i++ {
				c.GetTenant(0, fmt.Sprintf("k%d", i))
			}
		}
	}
	cycle()
	if got := c.MissCurves()[0][6]; got != 6 {
		t.Fatalf("window 1: tenant 0 misses at 6 ways = %d, want 6 cold", got)
	}
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	cycle()
	curves := c.MissCurves()
	if curves[0][0] != 300 {
		t.Fatalf("window 2: tenant 0 accesses = %d, want 300", curves[0][0])
	}
	if curves[0][6] != 0 {
		t.Fatalf("window 2: tenant 0 misses at 6 ways = %d, want 0 (keys still resident)", curves[0][6])
	}
}

// TestATDBatchMatchesPerKey drives one auto-selecting, string-keyed
// workload through GetBatch (the shard-grouped path) on one cache and
// per-key GetTenant on another: the tag directory must see the same
// stream, so the miss curves and policy switches must be identical.
func TestATDBatchMatchesPerKey(t *testing.T) {
	type run struct {
		c        *Cache[string, uint64]
		switches []PolicySwitchEvent
	}
	build := func() *run {
		r := &run{}
		c, err := New[string, uint64](
			WithShards(4), WithSets(16), WithWays(8), WithPartitions(2),
			WithPolicy(plru.LRU), WithPolicyAutoSelect(plru.ARC),
			WithSeed(3), WithProfileSampling(2),
			WithRebalanceHysteresis(0.05, 256),
			WithMetricsSink(MetricsSink{PolicySwitch: func(ev PolicySwitchEvent) { r.switches = append(r.switches, ev) }}),
		)
		if err != nil {
			t.Fatal(err)
		}
		r.c = c
		return r
	}
	batch, perKey := build(), build()
	perKey.c.seed = batch.c.seed // same key placement (white box)

	rng := uint64(99)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	hot := make([]uint64, 96)
	for i := range hot {
		hot[i] = uint64(i)
	}
	var scanCtr uint64
	const n = 24
	keys := make([]string, n)
	vals := make([]uint64, n)
	oks := make([]bool, n)
	for w := 0; w < 12; w++ {
		for round := 0; round < 400; round++ {
			tenant := int(next() % 2)
			for i := range keys {
				keys[i] = fmt.Sprint(scanKey(next, hot, &scanCtr))
			}
			batch.c.GetBatch(tenant, keys, vals, oks)
			for i, k := range keys {
				if _, ok := perKey.c.GetTenant(tenant, k); ok != oks[i] {
					t.Fatalf("window %d round %d key %s: batch hit %v, per-key hit %v", w, round, k, oks[i], ok)
				}
			}
			for i, k := range keys {
				if !oks[i] {
					batch.c.SetTenant(tenant, k, 1)
					perKey.c.SetTenant(tenant, k, 1)
				}
			}
		}
		if got, want := batch.c.MissCurves(), perKey.c.MissCurves(); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: GetBatch curves %v, per-key curves %v", w, got, want)
		}
		qb, err := batch.c.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		qp, err := perKey.c.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(qb, qp) {
			t.Fatalf("window %d: GetBatch quotas %v, per-key quotas %v", w, qb, qp)
		}
	}
	if !reflect.DeepEqual(batch.switches, perKey.switches) {
		t.Fatalf("GetBatch switches %+v\nper-key switches %+v", batch.switches, perKey.switches)
	}
	if len(perKey.switches) == 0 {
		t.Fatal("workload never switched a policy; the comparison is vacuous")
	}
}
