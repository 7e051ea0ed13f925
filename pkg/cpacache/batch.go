package cpacache

import (
	"fmt"
	"hash/maphash"
	"math/bits"
)

// Batch operations group keys by shard and take each shard's lock exactly
// once per call, amortizing lock acquisition (and its cache-line traffic)
// over the whole batch — the dominant per-op cost once the probe itself is
// a tag match. Keys are processed in their original order within each
// shard, so a batch is equivalent to issuing its per-shard subsequences
// through SetTenant/GetTenant back to back; only the interleaving BETWEEN
// shards differs from the sequential loop. OnEvict callbacks still run
// after the owning shard's lock is released.
//
// The per-call scratch (hashes, shard grouping, displaced entries) is
// recycled through a sync.Pool, so steady-state batches do not allocate.

// batchScratch is the reusable working storage of one batch call.
type batchScratch[K comparable, V any] struct {
	hash  []uint64
	order []int32 // key indices grouped by shard
	start []int32 // len(shards)+1 group boundaries into order
	cur   []int32 // per-shard placement cursors
	evK   []K     // displaced live entries awaiting OnEvict
	evV   []V
	exK   []K // expired entries awaiting OnExpire
	exV   []V
}

// flushCallbacks runs the buffered OnEvict/OnExpire callbacks (the owning
// shard's lock must already be released) and clears the buffers.
func (c *Cache[K, V]) flushCallbacks(s *batchScratch[K, V]) {
	if len(s.evK) > 0 {
		for j := range s.evK {
			c.onEvict(s.evK[j], s.evV[j])
		}
		clear(s.evK) // drop references before pooling
		clear(s.evV)
		s.evK = s.evK[:0]
		s.evV = s.evV[:0]
	}
	if len(s.exK) > 0 {
		for j := range s.exK {
			c.onExpire(s.exK[j], s.exV[j])
		}
		clear(s.exK)
		clear(s.exV)
		s.exK = s.exK[:0]
		s.exV = s.exV[:0]
	}
}

// getScratch returns a scratch sized for n keys, reusing a pooled one
// when available.
func (c *Cache[K, V]) getScratch(n int) *batchScratch[K, V] {
	s, _ := c.batchPool.Get().(*batchScratch[K, V])
	if s == nil {
		s = &batchScratch[K, V]{}
	}
	if cap(s.hash) < n {
		s.hash = make([]uint64, n)
		s.order = make([]int32, n)
	}
	s.hash = s.hash[:n]
	s.order = s.order[:n]
	if s.start == nil {
		s.start = make([]int32, len(c.shards)+1)
		s.cur = make([]int32, len(c.shards))
	}
	return s
}

// putScratch returns a scratch to the pool. The eviction buffers were
// already cleared by the caller; hash/order hold no references.
func (c *Cache[K, V]) putScratch(s *batchScratch[K, V]) {
	c.batchPool.Put(s)
}

// groupByShard hashes every key and builds, in s.order, the key indices
// grouped by shard (original order preserved within each shard).
// s.start[si]..s.start[si+1] bounds shard si's group.
func (c *Cache[K, V]) groupByShard(s *batchScratch[K, V], keys []K) {
	for i := range s.start {
		s.start[i] = 0
	}
	for i, k := range keys {
		h := maphash.Comparable(c.seed, k)
		s.hash[i] = h
		s.start[(h&c.shardMask)+1]++
	}
	for i := 1; i < len(s.start); i++ {
		s.start[i] += s.start[i-1]
	}
	copy(s.cur, s.start[:len(s.cur)])
	for i := range keys {
		si := s.hash[i] & c.shardMask
		s.order[s.cur[si]] = int32(i)
		s.cur[si]++
	}
}

// GetBatch looks up every key on behalf of tenant, writing results into
// vals[i] and oks[i] (both must be at least len(keys) long; vals[i] is
// zeroed on a miss). It returns the number of hits. Stats, recency
// updates and profiling are identical to per-key GetTenant calls. When
// the lock-free read path is active each key takes the same optimistic
// probe GetTenant uses (there is no lock left to amortize); otherwise —
// pointerful key/value types, race builds, WithImmediateRecency — the
// keys are grouped by shard and each shard's lock is taken once for its
// whole group.
func (c *Cache[K, V]) GetBatch(tenant int, keys []K, vals []V, oks []bool) int {
	c.checkTenant(tenant)
	if len(vals) < len(keys) || len(oks) < len(keys) {
		panic("cpacache: GetBatch result slices shorter than keys")
	}
	if len(keys) == 0 {
		return 0
	}
	if c.lockFree {
		// Lock-free per-key probes; the locked fallback handles profiled
		// sets, expired lines, contended retries and pointerful types.
		hits := 0
		for i, k := range keys {
			h := maphash.Comparable(c.seed, k)
			sh := &c.shards[h&c.shardMask]
			set := c.setOf(h)
			tag := tagOf(h)
			var v V
			var ok, done bool
			if !sh.prof.isSampled(set) {
				v, ok, done = c.getNoLock(sh, set, tenant, tag, k)
			}
			if !done {
				v, ok = c.getLocked(sh, h, set, tenant, tag, k)
			}
			vals[i] = v
			oks[i] = ok
			if ok {
				hits++
			}
		}
		return hits
	}
	s := c.getScratch(len(keys))
	c.groupByShard(s, keys)
	hits := 0
	var zero V
	for si := range c.shards {
		lo, hi := s.start[si], s.start[si+1]
		if lo == hi {
			continue
		}
		sh := &c.shards[si]
		sh.mu.Lock()
		c.drainTouches(sh)
		for _, oi := range s.order[lo:hi] {
			i := int(oi)
			set := c.setOf(s.hash[i])
			tag := tagOf(s.hash[i])
			base := set * c.ways
			tbase := c.tagBase(set)
			if sh.prof.isSampled(set) {
				sh.prof.record(set, tenant, s.hash[i])
			}
			// Probe inlined (as in getLocked) to keep the per-key loop
			// free of call overhead.
			way := -1
			for j := 0; j < c.tagWords && way < 0; j++ {
				for m := matchTag(sh.tags[tbase+j], tag); m != 0; m &= m - 1 {
					w := j*8 + markWay(bits.TrailingZeros64(m))
					if sh.keys[base+w] == keys[i] {
						way = w
						break
					}
				}
			}
			if way >= 0 && sh.ttl[set]&(1<<uint(way)) != 0 && sh.deadline[base+way] <= c.now() {
				// Expired lines never surface through GetBatch: reclaim
				// and report a miss, exactly as GetTenant does. The
				// Invalidate inside consults recency, so pending
				// deferred touches apply first.
				c.drainTouches(sh)
				exK, exV := c.expireLocked(sh, set, way)
				if c.onExpire != nil {
					s.exK = append(s.exK, exK)
					s.exV = append(s.exV, exV)
				}
				way = -1
			}
			if way >= 0 {
				sh.hm[tenant].hits++
				c.touchOrPush(sh, set, way, tenant)
				vals[i] = sh.vals[base+way]
				oks[i] = true
				hits++
			} else {
				sh.hm[tenant].misses++
				vals[i] = zero
				oks[i] = false
			}
		}
		sh.mu.Unlock()
		c.flushCallbacks(s)
	}
	c.putScratch(s)
	return hits
}

// SetBatch inserts or updates every keys[i] → vals[i] pair on behalf of
// tenant (the slices must be the same length). Victim selection, quota
// enforcement, default TTL, hard-budget enforcement and stats are
// identical to per-key SetTenant calls; each shard's lock is taken once
// for its whole group of keys, and OnEvict/OnExpire callbacks for the
// entries a shard displaced run right after that shard's lock is
// released. Under WithHardBudgets/WithMaxBytes, a key whose cost alone
// exceeds the limit is skipped — the rest of the batch is still applied
// — and SetBatch returns an error wrapping ErrEntryTooLarge that counts
// the skips; enforcement for admitted keys runs after each insert, so a
// batch never overshoots a budget by more than one entry, exactly like a
// sequence of SetTenant calls.
func (c *Cache[K, V]) SetBatch(tenant int, keys []K, vals []V) error {
	c.checkTenant(tenant)
	if len(vals) != len(keys) {
		panic("cpacache: SetBatch keys and vals lengths differ")
	}
	if len(keys) == 0 {
		return nil
	}
	enforce := c.enforcing()
	s := c.getScratch(len(keys))
	c.groupByShard(s, keys)
	dl := c.defaultDeadline(tenant)
	oversized := 0
	for si := range c.shards {
		lo, hi := s.start[si], s.start[si+1]
		if lo == hi {
			continue
		}
		sh := &c.shards[si]
		sh.mu.Lock()
		for gi := lo; gi < hi; gi++ {
			i := int(s.order[gi])
			set := c.setOf(s.hash[i])
			tag := tagOf(s.hash[i])
			var cost uint64
			if c.costFn != nil {
				cost = c.costFn(keys[i], vals[i])
				if enforce && c.admitCost(tenant, cost) != nil {
					oversized++
					continue
				}
			}
			evKey, evVal, kind, way := c.setLocked(sh, set, tenant, tag, keys[i], vals[i], dl, cost)
			switch {
			case kind == evictLive && c.onEvict != nil:
				s.evK = append(s.evK, evKey)
				s.evV = append(s.evV, evVal)
			case kind == evictTTL && c.onExpire != nil:
				s.exK = append(s.exK, evKey)
				s.exV = append(s.exV, evVal)
			}
			if enforce && c.overBudget(tenant) {
				// Reclaim in this shard first (protecting the line just
				// written), spilling to the cross-shard walk only if the
				// tenant is still over — which requires dropping this
				// shard's lock, flushing its buffered callbacks, and
				// re-taking the lock to resume the group. The brief gap is
				// the same interleaving a concurrent writer could impose
				// between two per-key SetTenant calls.
				c.enforceShardLocked(sh, tenant, set, way, s)
				if c.overBudget(tenant) {
					sh.mu.Unlock()
					c.flushCallbacks(s)
					c.enforceAcross(tenant, si, s)
					sh.mu.Lock()
				}
			}
		}
		sh.mu.Unlock()
		c.flushCallbacks(s)
	}
	c.putScratch(s)
	if enforce {
		c.checkPressure()
	}
	if oversized > 0 {
		return fmt.Errorf("cpacache: SetBatch skipped %d oversized entries: %w", oversized, ErrEntryTooLarge)
	}
	return nil
}
