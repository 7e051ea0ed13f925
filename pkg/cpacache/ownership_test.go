package cpacache

import (
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"repro/pkg/plru"
)

// TestLookupsDoNotRetainKeys pins the key-ownership guarantee in the
// package doc: GetTenant and GetBatch may be handed string keys that
// alias a buffer the caller overwrites right after the call. One cache
// looks up freshly allocated keys, the other looks up views of a reused
// buffer that is scribbled over after every call; with one hash seed and
// every set profiled, both must end with identical miss curves, stats
// and contents.
func TestLookupsDoNotRetainKeys(t *testing.T) {
	build := func() *Cache[string, int] {
		c, err := New[string, int](
			WithShards(2), WithSets(16), WithWays(8), WithPartitions(2),
			WithPolicy(plru.BT), WithProfileSampling(1), WithSeed(5),
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	fresh, borrowed := build(), build()
	borrowed.seed = fresh.seed

	const batch = 4
	buf := make([]byte, 0, 64*batch)
	// view copies key into buf and returns a string aliasing those bytes.
	view := func(key string) string {
		start := len(buf)
		buf = append(buf, key...)
		return unsafe.String(&buf[start], len(key))
	}
	scribble := func() {
		for i := range buf {
			buf[i] = '#'
		}
		buf = buf[:0]
	}
	keyOf := func(n uint64) string { return "key:" + strconv.FormatUint(n%700, 10) }

	rng := uint64(17)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	freshKeys := make([]string, batch)
	viewKeys := make([]string, batch)
	vals := make([]int, batch)
	oks := make([]bool, batch)
	for i := 0; i < 40_000; i++ {
		tenant := int(next() % 2)
		switch next() % 4 {
		case 0:
			k := keyOf(next())
			fresh.SetTenant(tenant, k, i)
			borrowed.SetTenant(tenant, k, i)
		case 1:
			for j := range freshKeys {
				freshKeys[j] = keyOf(next())
				viewKeys[j] = view(freshKeys[j])
			}
			fresh.GetBatch(tenant, freshKeys, vals, oks)
			borrowed.GetBatch(tenant, viewKeys, vals, oks)
			scribble()
		default:
			k := keyOf(next())
			fresh.GetTenant(tenant, k)
			borrowed.GetTenant(tenant, view(k))
			scribble()
		}
	}
	if got, want := borrowed.MissCurves(), fresh.MissCurves(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MissCurves with reused key buffers = %v, want %v", got, want)
	}
	if got, want := borrowed.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats with reused key buffers = %+v, want %+v", got, want)
	}
	if borrowed.Len() != fresh.Len() {
		t.Fatalf("Len = %d, want %d", borrowed.Len(), fresh.Len())
	}
	for n := uint64(0); n < 700; n++ {
		k := keyOf(n)
		_, _, inFresh := fresh.TTL(k)
		_, _, inBorrowed := borrowed.TTL(k)
		if inFresh != inBorrowed {
			t.Fatalf("%s resident: %v with reused key buffers, %v with fresh keys", k, inBorrowed, inFresh)
		}
	}
}
