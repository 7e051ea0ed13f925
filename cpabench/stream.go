package main

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/pkg/plru"
)

// tenantShape is one tenant's traffic: its key space, value size,
// operation mix and TTL, and how many keys the warm fill writes.
type tenantShape struct {
	name      string
	password  string // "" for the open single-tenant daemon
	prefix    string // key prefix, so tenants never share keys
	keys      int
	valueSize int
	setRatio  float64
	zipf      bool          // zipf s=1.0 over the keys, else uniform
	ttl       time.Duration // PX on every SET (0 = none)
	budget    uint64        // hard byte budget (0 = none)
	fillKeys  int           // keys 0..fillKeys-1 are written by the warm fill
}

// kvShape is one daemon workload: the daemon's configuration, the
// tenants, which tenant each connection drives, the closed-loop pipeline
// depth and the open-loop offered rate.
type kvShape struct {
	name          string
	policy        plru.Kind
	autoRebalance time.Duration // 0 = off
	autoSelect    bool
	hardBudgets   bool
	tenants       []tenantShape
	connTenant    []int
	pipeline      int
	openRate      float64 // requests/s over all connections
}

// capacity is the default cache geometry's slot count: 8 shards × 1024
// sets × 16 ways.
const (
	slotsPerWay = 8 * 1024
	capacity    = slotsPerWay * 16
)

var kvShapes = map[string]kvShape{
	// One open tenant whose data fits: 40% of the slots, pre-filled, so
	// nearly every GET hits and eviction, the governor and rebalancing
	// stay idle. Socket, RESP, dispatch and the cache read path do the work.
	"kv-hot": {
		name:   "kv-hot",
		policy: plru.BT,
		tenants: []tenantShape{{
			name: "default", prefix: "k:", keys: capacity * 2 / 5, valueSize: 128,
			setRatio: 0.05, zipf: true, fillKeys: capacity * 2 / 5,
		}},
		connTenant: []int{0, 0},
		pipeline:   32,
		openRate:   30000,
	},
	// Two tenants under NRU, so MinMisses can move single ways, with
	// auto-rebalance and policy auto-selection: a reuse set at the knee
	// (1.3× its even share) beside a TTL'd bulk stream 15× the cache under
	// a hard byte budget. Every bulk SET evicts through the governor and
	// the timing wheel expires lines. The bulk tenant comes first: with
	// miss curves that favour nobody, MinMisses breaks ties toward the
	// first tenant, so only curves that favour the reuse set can give it
	// the ways (see validity).
	"kv-tenants": {
		name:          "kv-tenants",
		policy:        plru.NRU,
		autoRebalance: 200 * time.Millisecond,
		autoSelect:    true,
		hardBudgets:   true,
		tenants: []tenantShape{
			{name: "bulk", password: "bulkpw", prefix: "b:", keys: capacity * 15,
				valueSize: 1024, setRatio: 0.50, ttl: 150 * time.Millisecond,
				budget: 4 << 20, fillKeys: 8192},
			{name: "hot", password: "hotpw", prefix: "h:", keys: capacity / 2 * 13 / 10,
				valueSize: 256, setRatio: 0.10, fillKeys: capacity / 2 * 13 / 10},
		},
		connTenant: []int{1, 0},
		pipeline:   32,
		openRate:   12000,
	},
}

// daemonArgs renders the shape as cpacached flags.
func (sh kvShape) daemonArgs() []string {
	args := []string{"-policy", sh.policy.String()}
	if sh.autoRebalance > 0 {
		args = append(args, "-auto-rebalance", sh.autoRebalance.String())
	}
	if sh.autoSelect {
		args = append(args, "-policy-autoselect")
	}
	if sh.hardBudgets {
		args = append(args, "-hard-budgets")
	}
	for _, t := range sh.tenants {
		if t.password != "" {
			args = append(args, "-tenant", t.name+":"+t.password+":0:"+strconv.FormatUint(t.budget, 10))
		}
	}
	return args
}

// serverConfig is the same configuration for an in-process server.
func (sh kvShape) serverConfig() server.Config {
	cfg := server.Config{
		Policy:           sh.policy,
		AutoRebalance:    sh.autoRebalance,
		PolicyAutoSelect: sh.autoSelect,
		HardBudgets:      sh.hardBudgets,
	}
	for _, t := range sh.tenants {
		if t.password != "" {
			cfg.Tenants = append(cfg.Tenants, server.TenantConfig{Name: t.name, Password: t.password, Budget: t.budget})
		}
	}
	return cfg
}

// zipfCDF samples ranks 0..n-1 with P(k) ∝ 1/(k+1): zipf with s = 1.0
// exactly, which math/rand's sampler (s > 1 only) cannot produce.
type zipfCDF []float64

func newZipfCDF(n int) zipfCDF {
	c := make(zipfCDF, n)
	sum := 0.0
	for k := range c {
		sum += 1 / float64(k+1)
		c[k] = sum
	}
	for k := range c {
		c[k] /= sum
	}
	return c
}

func (c zipfCDF) sample(r *rand.Rand) int {
	return min(sort.SearchFloat64s(c, r.Float64()), len(c)-1)
}

// request is one generated operation. version is the SET's version, or,
// for a GET, filled in at send time with the lowest version a hit may
// return.
type request struct {
	set     bool
	key     int
	version uint64
}

// gen is one connection's seeded request stream. Every key has a single
// writer — connection w of a tenant's n writers SETs only keys with
// key%n == w — so a key's SETs arrive in the order they are sent and a GET hit must
// return at least the version acknowledged before the GET was sent.
type gen struct {
	rng      *rand.Rand
	t        *tenantShape
	zipf     zipfCDF
	conn     int
	writer   int
	writers  int
	seq      uint64
	fillNext int
}

func newGen(seed uint64, workload string, conn int, t *tenantShape, zipf zipfCDF, writer, writers int) *gen {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &gen{
		rng:      rand.New(rand.NewPCG(seed, h.Sum64()^uint64(conn)*0x9e3779b97f4a7c15)),
		t:        t,
		zipf:     zipf,
		conn:     conn,
		writer:   writer,
		writers:  writers,
		fillNext: writer,
	}
}

func (g *gen) nextVersion() uint64 {
	g.seq++
	return g.seq<<8 | uint64(g.conn+1)
}

// fill returns the next warm-fill SET of this writer's share of the
// fill keys, or false when the share is written.
func (g *gen) fill() (request, bool) {
	if g.fillNext >= g.t.fillKeys {
		return request{}, false
	}
	k := g.fillNext
	g.fillNext += g.writers
	return request{set: true, key: k, version: g.nextVersion()}, true
}

func (g *gen) next() request {
	var k int
	if g.zipf != nil {
		k = g.zipf.sample(g.rng)
	} else {
		k = g.rng.IntN(g.t.keys)
	}
	if g.rng.Float64() >= g.t.setRatio {
		return request{key: k}
	}
	k += g.writer - k%g.writers
	if k >= g.t.keys {
		k -= g.writers
	}
	return request{set: true, key: k, version: g.nextVersion()}
}

// streamHash hashes every connection's warm fill and the first n
// requests of its measured stream for a workload and seed: the
// provenance of the inputs a run sends.
func streamHash(sh kvShape, seed uint64, n int) uint64 {
	h := fnv.New64a()
	var b [17]byte
	put := func(c int, r request) {
		b[0] = byte(c)
		if r.set {
			b[0] |= 0x80
		}
		binary.LittleEndian.PutUint64(b[1:], uint64(r.key))
		binary.LittleEndian.PutUint64(b[9:], r.version)
		h.Write(b[:])
	}
	for c, g := range newGens(sh, seed) {
		for r, ok := g.fill(); ok; r, ok = g.fill() {
			put(c, r)
		}
		for i := 0; i < n; i++ {
			put(c, g.next())
		}
	}
	return h.Sum64()
}

func newGens(sh kvShape, seed uint64) []*gen {
	zipfs := make([]zipfCDF, len(sh.tenants))
	for i, t := range sh.tenants {
		if t.zipf {
			zipfs[i] = newZipfCDF(t.keys)
		}
	}
	writers := make([]int, len(sh.tenants))
	for _, t := range sh.connTenant {
		writers[t]++
	}
	seen := make([]int, len(sh.tenants))
	gens := make([]*gen, len(sh.connTenant))
	for c, t := range sh.connTenant {
		gens[c] = newGen(seed, sh.name, c, &sh.tenants[t], zipfs[t], seen[t], writers[t])
		seen[t]++
	}
	return gens
}

// appendKey renders prefix + the key index zero-padded to 8 digits.
func appendKey(dst []byte, prefix string, k int) []byte {
	dst = append(dst, prefix...)
	var d [8]byte
	for i := 7; i >= 0; i-- {
		d[i] = byte('0' + k%10)
		k /= 10
	}
	return append(dst, d[:]...)
}

// Values are self-describing so every GET hit can be checked:
//
//	[0,16)        version, 16 hex digits
//	16            '|'
//	17..          the key, then '|'
//	..size-8      filler
//	[size-8,size) CRC-32C of everything before it, 8 hex digits
const valueHeader = 17

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func appendValue(dst, key []byte, version uint64, size int) []byte {
	start := len(dst)
	dst = appendHex(dst, version, 16)
	dst = append(dst, '|')
	dst = append(dst, key...)
	dst = append(dst, '|')
	for len(dst)-start < size-8 {
		dst = append(dst, byte('a'+(len(dst)-start)%26))
	}
	return appendHex(dst, uint64(crc32.Checksum(dst[start:], castagnoli)), 8)
}

func appendHex(dst []byte, v uint64, digits int) []byte {
	const hexd = "0123456789abcdef"
	for i := digits - 1; i >= 0; i-- {
		dst = append(dst, hexd[(v>>(4*uint(i)))&0xf])
	}
	return dst
}

// checkValue verifies a value read for key: its size, the key it
// carries and its checksum. It returns the version it encodes.
func checkValue(key, val []byte, size int) (uint64, bool) {
	if len(val) != size || size < valueHeader+len(key)+1+8 {
		return 0, false
	}
	body := val[:size-8]
	sum, ok := parseHex(val[size-8:])
	if !ok || uint32(sum) != crc32.Checksum(body, castagnoli) {
		return 0, false
	}
	if val[16] != '|' || string(val[valueHeader:valueHeader+len(key)]) != string(key) || val[valueHeader+len(key)] != '|' {
		return 0, false
	}
	return parseHex(val[:16])
}

func parseHex(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// ledger tracks, per key of one tenant, the highest version sent and the
// highest acknowledged, so a GET hit can be checked for staleness (below
// the version acknowledged before the GET was sent) and invention
// (above any version sent).
type ledger struct {
	sent  []atomic.Uint64
	acked []atomic.Uint64
}

func newLedger(keys int) *ledger {
	return &ledger{sent: make([]atomic.Uint64, keys), acked: make([]atomic.Uint64, keys)}
}
