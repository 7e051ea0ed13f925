package cpacache

// profiler collects per-tenant stack-distance histograms over a sampled
// subset of one shard's sets, in the style of the paper's auxiliary tag
// directory / UMON monitors (§IV): every sampled set keeps, per tenant, a
// private true-LRU stack of the tags that tenant accessed, and each access
// records the tag's 1-based stack position (or a miss when the tag is
// deeper than the associativity). The histogram integrates into the
// tenant's miss-versus-ways curve, which is exactly what the cpapart
// allocators consume.
//
// Like the paper's ATD, the stacks hold tags, not keys: each entry is the
// key's 64-bit hash, which the lookup has already computed. That keeps
// the profiler pointer-free (the GC never scans it), makes its compare a
// word compare, and means no lookup ever retains the caller's key. Two
// keys of one sampled set alias only if their hashes also agree on every
// bit the shard and set index do not consume: a profile-only error, never
// a data-path one, as with the ATD's partial tags.
//
// Sampling membership is precomputed into a bitmap at init: the hot path
// asks isSampled (one load + mask, inlined into GetTenant) and calls
// record only for sampled sets, so accesses to the other (sampleEvery-1)/
// sampleEvery of the cache never pay a profiler call at all. slot holds
// each sampled set's stack-block index so record does no division.
//
// The profiler lives under the shard mutex, so it needs no locking of its
// own. Its stacks are private to the profiler, not cache slots: a
// tenant's profile sees its own accesses only, undisturbed by other
// tenants' evictions — the "isolated miss curve" the partitioning model
// assumes.
type profiler struct {
	depth        int // stack depth == ways
	tenants      int
	sampledCount int // number of sampled sets (shadowDir sizes itself on it)
	// sampleBits[set/64] bit set%64 marks sets where set % every == 0.
	sampleBits []uint64
	// slot[set] is the sampled-set ordinal (stack-block index), -1 when
	// the set is not sampled.
	slot []int32
	// stacks[(slot*tenants+t)*depth:][:depth] is one tenant's stack of
	// key hashes, MRU first; fill[slot*tenants+t] is its occupancy.
	stacks []uint64
	fill   []uint8
	// hist[t*(depth+1)+d-1] counts tenant t's hits at stack distance d in
	// 1..depth; hist[t*(depth+1)+depth] counts its profiled misses.
	hist []uint64
}

func (p *profiler) init(sets, ways, tenants, every int) {
	if every > sets {
		every = sets
	}
	p.depth = ways
	p.tenants = tenants
	p.sampleBits = make([]uint64, (sets+63)/64)
	p.slot = make([]int32, sets)
	sampled := 0
	for set := 0; set < sets; set++ {
		if set%every == 0 {
			p.sampleBits[set>>6] |= 1 << (uint(set) & 63)
			p.slot[set] = int32(sampled)
			sampled++
		} else {
			p.slot[set] = -1
		}
	}
	p.sampledCount = sampled
	p.stacks = make([]uint64, sampled*tenants*ways)
	p.fill = make([]uint8, sampled*tenants)
	p.hist = make([]uint64, tenants*(ways+1))
}

// isSampled reports whether the set belongs to the profiled sample. It is
// small enough to inline into the lookup hot path.
func (p *profiler) isSampled(set int) bool {
	return p.sampleBits[uint(set)>>6]&(1<<(uint(set)&63)) != 0
}

// record notes an access by tenant to the key hashing to h in a sampled
// set: h is looked up in the tenant's private LRU stack, its distance
// recorded, and the stack updated move-to-front (inserting at MRU on a
// profiled miss, dropping the LRU entry when the stack is at depth). The
// caller must have checked isSampled(set).
func (p *profiler) record(set, tenant int, h uint64) {
	idx := int(p.slot[set])*p.tenants + tenant
	n := int(p.fill[idx])
	st := p.stacks[idx*p.depth : idx*p.depth+p.depth]
	hist := p.hist[tenant*(p.depth+1) : (tenant+1)*(p.depth+1)]
	pos := -1
	for i, x := range st[:n] {
		if x == h {
			pos = i
			break
		}
	}
	if pos < 0 {
		hist[p.depth]++
		if n < p.depth {
			p.fill[idx]++
			n++
		}
		pos = n - 1
	} else {
		hist[pos]++
	}
	copy(st[1:pos+1], st[:pos])
	st[0] = h
}

// addCurves accumulates this shard's miss curves into curves[t][w] for
// w in 0..depth: the number of profiled accesses that would miss if the
// tenant owned w ways (its hits at distances > w plus its cold misses).
func (p *profiler) addCurves(curves [][]uint64) {
	for t := 0; t < p.tenants; t++ {
		h := p.hist[t*(p.depth+1) : (t+1)*(p.depth+1)]
		var total uint64
		for _, n := range h {
			total += n
		}
		cum := uint64(0)
		curves[t][0] += total
		for w := 1; w <= p.depth; w++ {
			cum += h[w-1]
			curves[t][w] += total - cum
		}
	}
}

// reset clears the histograms and stacks for the next profiling interval.
func (p *profiler) reset() {
	clear(p.hist)
	clear(p.fill)
}
