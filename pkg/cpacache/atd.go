package cpacache

import (
	"math/bits"

	"repro/pkg/plru"
)

// atd is one shard's auxiliary tag directory, the paper's profiling
// structure (§IV, after UMON): for every sampled set and every tenant it
// keeps a private full-associativity shadow set, so a tenant's profile
// sees its own accesses only, undisturbed by other tenants' evictions —
// the "isolated miss curve" the partitioning model assumes.
//
// The directory runs one policy instance per kind over those shadow sets:
// LRU always, plus every WithPolicyAutoSelect candidate (LRU serves both
// uses when it is a candidate). On a hit in the LRU instance the line's
// LRUPolicy.Dist, read before the Touch, is the access's stack distance
// and goes into the tenant's histogram; a miss goes into the miss bin.
// Because an LRU set that fills free ways before it evicts is exactly a
// move-to-front stack, the histogram integrates into the same miss-
// versus-ways curve a true-LRU stack profiler gives, which is what the
// cpapart allocators consume. Every instance counts its window hits per
// tenant: those are the auto-select candidates' scores.
//
// Like the paper's ATD the shadow sets hold tags, not keys: each entry is
// the key's 64-bit hash, which the lookup has already computed. That
// keeps the directory pointer-free, makes its compare a word compare, and
// means no lookup ever retains the caller's key. Fills pass tagOf(h) as
// the policy signature, as the real cache does. Two keys of one sampled
// set alias only if their hashes agree on every bit: a profile-only
// error, never a data-path one.
//
// Sampling membership is a bitmap precomputed at init, so access (small
// enough to inline) costs one load and mask on the unsampled
// (sampleEvery-1)/sampleEvery of the sets. A window reset at Rebalance
// clears the counters only; residency is kept, so keys still resident
// from the previous window are not counted as cold misses again. All
// state lives under the shard mutex.
type atd struct {
	ways, tenants, every int
	full                 uint64 // low `ways` bits set
	// sampleBits[set/64] bit set%64 marks sets where set % every == 0.
	sampleBits []uint64
	// pols is parallel to the auto-select candidate kinds, with LRU
	// appended when it is not a candidate; pols[lru] is the LRU instance.
	pols []policyRef
	lru  int
	// Per instance i and shadow set ss = (set/every)*tenants + tenant:
	// tags[i][ss*ways+w] is the key hash in way w and valid[i][ss] the
	// residency mask.
	tags  [][]uint64
	valid [][]uint64
	// hits[i][t] counts tenant t's window hits in instance i.
	hits [][]uint64
	// hist[t*(ways+1)+d-1] counts tenant t's LRU hits at stack distance d
	// in 1..ways; hist[t*(ways+1)+ways] counts its misses.
	hist []uint64
}

func newATD(kinds []plru.Kind, sets, ways, tenants, every int, seed uint64) atd {
	a := atd{
		ways:       ways,
		tenants:    tenants,
		every:      every,
		full:       uint64(plru.Full(ways)),
		sampleBits: make([]uint64, (sets+63)/64),
		lru:        -1,
		hist:       make([]uint64, tenants*(ways+1)),
	}
	for set := 0; set < sets; set += every {
		a.sampleBits[set>>6] |= 1 << (uint(set) & 63)
	}
	for i, k := range kinds {
		if k == plru.LRU {
			a.lru = i
		}
	}
	if a.lru < 0 {
		a.lru = len(kinds)
		kinds = append(kinds[:len(kinds):len(kinds)], plru.LRU)
	}
	shadowSets := (sets + every - 1) / every * tenants
	a.pols = make([]policyRef, len(kinds))
	a.tags = make([][]uint64, len(kinds))
	a.valid = make([][]uint64, len(kinds))
	a.hits = make([][]uint64, len(kinds))
	for i, k := range kinds {
		a.pols[i] = newPolicyRef(k, shadowSets, ways, tenants, seed+uint64(i)<<24)
		a.tags[i] = make([]uint64, shadowSets*ways)
		a.valid[i] = make([]uint64, shadowSets)
		a.hits[i] = make([]uint64, tenants)
	}
	return a
}

// isSampled reports whether the set belongs to the profiled sample.
func (a *atd) isSampled(set int) bool {
	return a.sampleBits[uint(set)>>6]>>(uint(set)&63)&1 != 0
}

// access notes a lookup by tenant of the key hashing to h in set, if the
// set is sampled. The isSampled test is spelled out to keep access within
// the inlining budget.
func (a *atd) access(set, tenant int, h uint64) {
	if a.sampleBits[uint(set)>>6]>>(uint(set)&63)&1 != 0 {
		a.record(set, tenant, h)
	}
}

// record runs one sampled access through every instance's shadow set:
// probe by hash, Touch on a hit, Victim+Fill on a miss (free ways
// first).
func (a *atd) record(set, tenant int, h uint64) {
	ss := set/a.every*a.tenants + tenant
	tags := ss * a.ways
	hist := a.hist[tenant*(a.ways+1) : (tenant+1)*(a.ways+1)]
	for i := range a.pols {
		p := &a.pols[i]
		vm := a.valid[i][ss]
		way := -1
		for m := vm; m != 0; m &= m - 1 {
			if w := bits.TrailingZeros64(m); a.tags[i][tags+w] == h {
				way = w
				break
			}
		}
		if way >= 0 {
			if i == a.lru {
				hist[p.lru.Dist(ss, way)-1]++
			}
			a.hits[i][tenant]++
			p.touch(ss, way, tenant)
			continue
		}
		if i == a.lru {
			hist[a.ways]++
		}
		if free := a.full &^ vm; free != 0 {
			way = bits.TrailingZeros64(free)
		} else {
			way = p.victim(ss, tenant, plru.WayMask(a.full))
		}
		a.tags[i][tags+way] = h
		a.valid[i][ss] = vm | 1<<uint(way)
		p.fill(ss, way, tenant, tagOf(h))
	}
}

// addCurves accumulates this shard's miss curves into curves[t][w] for
// w in 0..ways: the number of window accesses that would miss if the
// tenant owned w ways (its hits at distances > w plus its misses).
// curves[t][0] is therefore every window access of tenant t.
func (a *atd) addCurves(curves [][]uint64) {
	for t := 0; t < a.tenants; t++ {
		h := a.hist[t*(a.ways+1) : (t+1)*(a.ways+1)]
		var total uint64
		for _, n := range h {
			total += n
		}
		cum := uint64(0)
		curves[t][0] += total
		for w := 1; w <= a.ways; w++ {
			cum += h[w-1]
			curves[t][w] += total - cum
		}
	}
}

// resetWindow clears the window counters; residency is kept.
func (a *atd) resetWindow() {
	clear(a.hist)
	for i := range a.hits {
		clear(a.hits[i])
	}
}
