package cpacache

// Online replacement-policy auto-selection (WithPolicyAutoSelect).
//
// The paper's UMON monitors answer "how many ways does this tenant
// need"; this file extends the same machinery to answer "which
// replacement policy serves this tenant best". Two structures do the
// work, both per shard:
//
//   - multiPol keeps one warm instance of every candidate policy over
//     the shard's real geometry. Every recency event — touch, fill,
//     invalidate, partition install — fans out to all instances, so each
//     candidate's state tracks the shard's actual residency at all
//     times. Victim selection routes through the tenant's currently
//     selected instance, so a policy switch is just an index store: no
//     state rebuild, no cold start.
//
//   - The shard's auxiliary tag directory (atd.go) scores them. It runs
//     one instance of every candidate over its shadow sets, so on every
//     profiled lookup each candidate simulates the tenant's stream at
//     full associativity: a Touch on a shadow hit, a Victim+Fill on a
//     shadow miss. The per-candidate window hits are the scores.
//
// Decisions happen at rebalance boundaries, under quotaMu, with the
// same hysteresis knobs quota changes use (WithRebalanceHysteresis): a
// tenant switches only when its window holds at least minSamples
// profiled accesses and the best candidate's ATD hits beat the
// current policy's by more than the hysteresis fraction. Switches are
// reported through MetricsSink.PolicySwitch and visible in
// Snapshot.Policies.

import (
	"fmt"

	"repro/pkg/plru"
)

// multiPol is the per-shard candidate-policy bank. byTenant is written
// under quotaMu while holding the shard lock and read under the shard
// lock, like the shard's partition masks.
type multiPol struct {
	pols     []policyRef // parallel to Cache.activeKinds
	byTenant []int32     // tenant -> index into pols
}

func newMultiPol(kinds []plru.Kind, base, sets, ways, tenants int, seed uint64) *multiPol {
	m := &multiPol{
		pols:     make([]policyRef, len(kinds)),
		byTenant: make([]int32, tenants),
	}
	for i, k := range kinds {
		m.pols[i] = newPolicyRef(k, sets, ways, tenants, seed+uint64(i)<<32)
	}
	for t := range m.byTenant {
		m.byTenant[t] = int32(base)
	}
	return m
}

// The pol* methods are the shard's single policy entry points: every
// data-plane call site goes through them. Without auto-selection
// (multi == nil, the common case) they are one predictable branch ahead
// of the devirtualized policyRef call; with it, recency fans out to
// every candidate and victim selection routes through the tenant's
// selected instance. Callers hold sh.mu.

func (sh *shard[K, V]) polTouch(set, way, tenant int) {
	if m := sh.multi; m != nil {
		for i := range m.pols {
			m.pols[i].touch(set, way, tenant)
		}
		return
	}
	sh.pol.touch(set, way, tenant)
}

func (sh *shard[K, V]) polFill(set, way, tenant int, sig uint8) {
	if m := sh.multi; m != nil {
		for i := range m.pols {
			m.pols[i].fill(set, way, tenant, sig)
		}
		return
	}
	sh.pol.fill(set, way, tenant, sig)
}

func (sh *shard[K, V]) polTouchBatch(recs []plru.TouchRec) {
	if m := sh.multi; m != nil {
		for i := range m.pols {
			m.pols[i].touchBatch(recs)
		}
		return
	}
	sh.pol.touchBatch(recs)
}

func (sh *shard[K, V]) polVictim(set, tenant int, allowed plru.WayMask) int {
	if m := sh.multi; m != nil {
		return m.pols[m.byTenant[tenant]].victim(set, tenant, allowed)
	}
	return sh.pol.victim(set, tenant, allowed)
}

func (sh *shard[K, V]) polInvalidate(set, way int) {
	if m := sh.multi; m != nil {
		for i := range m.pols {
			m.pols[i].invalidate(set, way)
		}
		return
	}
	sh.pol.invalidate(set, way)
}

func (sh *shard[K, V]) polSetPartition(masks []plru.WayMask) {
	if m := sh.multi; m != nil {
		for i := range m.pols {
			m.pols[i].setPartition(masks)
		}
		return
	}
	sh.pol.setPartition(masks)
}

// selectPoliciesLocked is the rebalance-boundary policy decision:
// aggregate every shard's ATD scores, pick each tenant's best
// candidate under the hysteresis rule, and install the new routing on
// every shard. Returns one event per switch (usually none). Caller
// holds quotaMu; shard locks are taken one at a time, in the same
// order setQuotasLocked takes them. A tenant's window accesses are
// c.ctlCurves[t][0], which the caller has just gathered.
func (c *Cache[K, V]) selectPoliciesLocked() []PolicySwitchEvent {
	hits := c.ctlScores
	for k := range hits {
		clear(hits[k])
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k := range hits {
			for t, h := range sh.atd.hits[k] {
				hits[k][t] += h
			}
		}
		sh.mu.Unlock()
	}
	var events []PolicySwitchEvent
	changed := false
	for t := 0; t < c.tenants; t++ {
		acc := c.ctlCurves[t][0]
		if acc < c.minSamples {
			continue
		}
		cur := c.polByTenant[t]
		best := cur
		for k := range hits {
			if hits[k][t] > hits[best][t] {
				best = k
			}
		}
		if best == cur {
			continue
		}
		// Same shape as the quota hysteresis: a strict improvement worth
		// more than the hysteresis fraction of the incumbent's score.
		if float64(hits[best][t]-hits[cur][t]) <= c.hysteresis*float64(hits[cur][t]) {
			continue
		}
		c.polByTenant[t] = best
		changed = true
		ev := PolicySwitchEvent{
			Tenant:         t,
			From:           c.activeKinds[cur],
			To:             c.activeKinds[best],
			WindowAccesses: acc,
			Candidates:     append([]plru.Kind(nil), c.activeKinds...),
			ShadowHits:     make([]uint64, len(hits)),
		}
		for k := range hits {
			ev.ShadowHits[k] = hits[k][t]
		}
		events = append(events, ev)
	}
	if changed {
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			for t, k := range c.polByTenant {
				sh.multi.byTenant[t] = int32(k)
			}
			sh.mu.Unlock()
		}
	}
	return events
}

// resolveCandidates expands and validates a WithPolicyAutoSelect
// candidate list: the base policy is always included, duplicates are
// dropped, and kinds that cannot run on the geometry (BT without
// power-of-two ways) are rejected when explicit and skipped when
// defaulted. An empty request selects every kind that fits except
// Random (which has no recency signal to win on).
func resolveCandidates(base plru.Kind, ways int, req []plru.Kind) ([]plru.Kind, error) {
	btOK := ways&(ways-1) == 0
	if len(req) == 0 {
		for _, k := range plru.Kinds() {
			if k == plru.Random && base != plru.Random {
				continue
			}
			if k == plru.BT && !btOK {
				continue
			}
			req = append(req, k)
		}
	} else {
		req = append([]plru.Kind{base}, req...)
	}
	var out []plru.Kind
	seen := make(map[plru.Kind]bool)
	for _, k := range req {
		switch k {
		case plru.LRU, plru.NRU, plru.BT, plru.Random, plru.AWRP, plru.ARC:
		default:
			return nil, fmt.Errorf("cpacache: unknown auto-select candidate policy %d", int(k))
		}
		if k == plru.BT && !btOK {
			return nil, fmt.Errorf("cpacache: auto-select candidate BT needs power-of-two ways, got %d", ways)
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("cpacache: auto-select needs at least two distinct candidate policies, got %v", out)
	}
	return out, nil
}
