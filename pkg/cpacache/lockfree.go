package cpacache

import (
	"math/bits"
	"reflect"
	"sync/atomic"
)

// The optimistic (seqlock-validated) read path.
//
// Every set carries a sequence word in the slot just before its packed
// tag words (see tags.go). Writers — Set, Delete, SetTTL, expiry, the
// sweeper — hold the shard mutex and bracket each set mutation with two
// atomic increments: odd while the set is being rewritten, back to even
// when it is consistent. A reader loads the sequence, probes the tag
// words, reads the candidate slot's key, TTL state and value with plain
// loads, then re-loads the sequence; if it moved (or was odd to begin
// with), everything read in between is discarded and the probe retries,
// falling back to the locked path after a few attempts. A reader can
// therefore never *return* a torn key/value pairing — at worst it reads
// garbage it throws away.
//
// What makes this sound in Go rather than merely lucky:
//
//   - The sequence and tag words are loaded atomically; the acquire
//     semantics order them against the writer's release increments.
//   - Keys and values are read with plain loads that can observe torn
//     data mid-write. That is harmless only because the cache refuses to
//     run this path unless K and V are pointer-free types (see
//     pointerFree): a torn uint64 is garbage to be discarded, but a torn
//     string header or interface would hand the garbage to the key
//     comparison — or worse, to the garbage collector — before the
//     sequence check could reject it. Pointerful K or V silently keep
//     the locked read path (still with deferred recency).
//   - TTL deadlines live in a lazily allocated array, but its ttl-bit
//     word is only ever observed nonzero through an atomic load that
//     synchronizes with the (lock-ordered) allocation, so the reader
//     never dereferences the array before it exists.
//   - Race-detector builds disable the path entirely (raceEnabled): the
//     discard-on-retry loads are real data races under the strict memory
//     model, and the detector would rightly report them.
//
// Hits on this path do not touch the policy or the tag directory: recency is
// deferred through the shard's touch ring (ring.go) and profiled sets
// (atd.isSampled) are routed to the locked path by the caller, so the
// miss curves driving Rebalance see exactly the traffic they always did.

// lockFreeRetries is how many times a reader retries a moved sequence
// before giving up and taking the shard lock. Two suffices for nearly
// all interleavings; the fallback keeps worst-case latency bounded under
// a write-heavy storm.
const lockFreeRetries = 3

// pointerFree reports whether a type contains no pointers anywhere in
// its representation, making torn reads of it GC-safe and crash-safe.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		// Pointers, strings, slices, maps, chans, funcs, interfaces,
		// unsafe.Pointer — anything the GC scans.
		return false
	}
}

// getNoLock is the seqlock-validated lookup. It returns done=false when
// the caller must fall back to the locked path: the sequence kept moving,
// a writer was mid-flight, or the probed line's TTL lapsed (reclamation
// needs the lock). On done=true the (value, ok) result is final and the
// hit/miss counter and deferred touch have been recorded.
func (c *Cache[K, V]) getNoLock(sh *shard[K, V], set, tenant int, tag uint8, key K) (v V, ok, done bool) {
	base := set * c.ways
	sbase := set * c.setStride
	var zero V
	for attempt := 0; attempt < lockFreeRetries; attempt++ {
		s1 := atomic.LoadUint64(&sh.tags[sbase])
		if s1&1 != 0 {
			continue // writer mid-flight in this set
		}
		ttlWord := atomic.LoadUint64(&sh.ttl[set])
		way := -1
		for j := 0; j < c.tagWords && way < 0; j++ {
			for m := matchTag(atomic.LoadUint64(&sh.tags[sbase+1+j]), tag); m != 0; m &= m - 1 {
				w := j*8 + markWay(bits.TrailingZeros64(m))
				if sh.keys[base+w] == key {
					way = w
					break
				}
			}
		}
		if way < 0 {
			if atomic.LoadUint64(&sh.tags[sbase]) != s1 {
				continue // set moved under us: the probe proves nothing
			}
			sh.hm[tenant].misses++
			return zero, false, true
		}
		if ttlWord&(1<<uint(way)) != 0 &&
			atomic.LoadInt64(&sh.deadline[base+way]) <= c.now() {
			// Expired: reclamation mutates the set, which needs the lock.
			return zero, false, false
		}
		v = sh.vals[base+way]
		if atomic.LoadUint64(&sh.tags[sbase]) != s1 {
			v = zero
			continue // possibly torn read: discard and retry
		}
		sh.hm[tenant].hits++
		sh.pushTouch(set, way, tenant)
		return v, true, true
	}
	return zero, false, false
}
