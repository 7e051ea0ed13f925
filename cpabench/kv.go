package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// kvPlan sets the phases of a daemon run. The measured part is rounds
// of a closed-loop window followed by an open-loop window; the rate and
// CPU metrics are bestTenth() over rounds, so a burst of contention from
// outside the benchmark spoils a round, not the run.
type kvPlan struct {
	rounds int           // measured rounds
	closed time.Duration // closed-loop window per round (throughput, CPU per request)
	open   time.Duration // open-loop window per round (latency at the offered rate)
	// between, when non-nil, runs after round i with the daemon idle.
	between func(i int) error
}

// round is what one measured round saw.
type round struct {
	completed uint64        // closed-loop requests
	wall      time.Duration // closed-loop window
	cpu       time.Duration // daemon CPU over the closed-loop window
	late      []float64     // open-loop generator lateness per tick, ns
	samples   []sample      // open-loop replies, all connections
}

// kvResult is what one daemon run measured.
type kvResult struct {
	setup    time.Duration // exec until listening, plus the warm fill
	rounds   []round
	late     []float64 // open-loop generator lateness per tick, ns
	calib    []float64 // calibrate() after every round, ns
	cnt      counts
	fill     counts // the warm fill's requests
	info     info
	peakRSS  uint64
	drainErr error
}

// perRound returns f of every round.
func (r *kvResult) perRound(f func(*round) float64) []float64 {
	xs := make([]float64, len(r.rounds))
	for i := range r.rounds {
		xs[i] = f(&r.rounds[i])
	}
	return xs
}

func (r *kvResult) throughputs() []float64 {
	return r.perRound(func(x *round) float64 { return float64(x.completed) / x.wall.Seconds() })
}

func (r *kvResult) cpuPerReqUS() []float64 {
	return r.perRound(func(x *round) float64 { return float64(x.cpu.Nanoseconds()) / 1e3 / float64(x.completed) })
}

func (r *kvResult) latency() latencySummary {
	rounds := make([][]sample, len(r.rounds))
	for i := range r.rounds {
		rounds[i] = r.rounds[i].samples
	}
	return roundLatency(rounds)
}

// runTail is the run-wide q-quantile latency of GETs (or SETs) in µs,
// every sample included.
func (r *kvResult) runTail(set bool, q float64) float64 {
	var xs []float64
	for i := range r.rounds {
		for _, s := range r.rounds[i].samples {
			if s.set == set {
				xs = append(xs, float64(s.lat))
			}
		}
	}
	return rank(xs, q) / 1e3
}

func (r *kvResult) hitRate() float64 { return float64(r.cnt.hits) / float64(r.cnt.gets) }

func (r *kvResult) memOverhead() float64 { return float64(r.peakRSS) / r.info.num("used_memory") }

// liveDaemon is a live daemon with its connections, seeded streams and
// ledgers.
type liveDaemon struct {
	d     *daemon
	conns []*kvConn
	fill  counts // the warm fill's requests
}

func (s *liveDaemon) close() error {
	for _, c := range s.conns {
		c.nc.Close()
	}
	return s.d.stop()
}

// bootKV starts a daemon for the shape, connects, and writes the warm
// fill; it returns it and the set-up time.
func bootKV(sh kvShape, o runOpts) (*liveDaemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(o.daemon, o.nproc, sh.daemonArgs())
	if err != nil {
		return nil, 0, err
	}
	s := &liveDaemon{d: d}
	leds := make([]*ledger, len(sh.tenants))
	for i, t := range sh.tenants {
		leds[i] = newLedger(t.keys)
	}
	for c, g := range newGens(sh, o.seed) {
		kc, err := dialKV(d.addr, g, leds[sh.connTenant[c]])
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.conns = append(s.conns, kc)
	}
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for i, c := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.fill(sh.pipeline)
		}()
	}
	wg.Wait()
	if err := firstErr(errs); err != nil {
		s.close()
		return nil, 0, err
	}
	setup := time.Since(t0)
	for _, c := range s.conns {
		s.fill.merge(&c.cnt)
		c.cnt = counts{}
	}
	return s, setup, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runKV boots the daemon (timing the boot and warm fill), runs the
// measured rounds, and reads INFO and the daemon's peak RSS before
// draining it.
func runKV(sh kvShape, plan kvPlan, o runOpts) (*kvResult, error) {
	s, setup, err := bootKV(sh, o)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", sh.name, err)
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	res := &kvResult{setup: setup, fill: s.fill}
	for i := 0; i < plan.rounds; i++ {
		rd, err := measureRound(s, sh, plan)
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, rd)
		res.late = append(res.late, rd.late...)
		res.calib = append(res.calib, float64(calibrate()))
		if plan.between != nil {
			if err := plan.between(i); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range s.conns {
		res.cnt.merge(&c.cnt)
	}
	if res.info, err = fetchInfo(s.d.addr, sh.tenants[0].password); err != nil {
		return nil, fmt.Errorf("%s INFO: %w", sh.name, err)
	}
	if res.peakRSS, err = s.d.peakRSS(); err != nil {
		return nil, err
	}
	res.drainErr = s.close()
	s = nil
	return res, nil
}

// measureRound runs one closed-loop window, then one open-loop window.
func measureRound(s *liveDaemon, sh kvShape, plan kvPlan) (round, error) {
	var rd round
	cpu0, err := s.d.cpuTime()
	if err != nil {
		return rd, err
	}
	t0 := time.Now()
	rd.completed, err = closedLoop(s.conns, t0.Add(plan.closed), sh.pipeline)
	rd.wall = time.Since(t0)
	if err != nil {
		return rd, fmt.Errorf("%s closed loop: %w", sh.name, err)
	}
	cpu1, err := s.d.cpuTime()
	if err != nil {
		return rd, err
	}
	rd.cpu = cpu1 - cpu0
	rd.late = openLoop(s.conns, sh.openRate, plan.open)
	for _, c := range s.conns {
		rd.samples = append(rd.samples, c.samples...)
		c.samples = c.samples[:0]
	}
	return rd, nil
}

// validity checks that the run exercised what its workload is for. It
// returns one line per assertion and whether all held.
func validity(sh kvShape, in info) ([]string, bool) {
	var lines []string
	ok := true
	check := func(cond bool, format string, args ...any) {
		mark := "ok  "
		if !cond {
			mark = "FAIL"
			ok = false
		}
		lines = append(lines, mark+" "+fmt.Sprintf(format, args...))
	}
	var evictions, budgetEv, expirations float64
	quotas := make([]int, len(in.tenants))
	for t := range in.tenants {
		evictions += in.tenantNum(t, "evictions")
		budgetEv += in.tenantNum(t, "budget_evictions")
		expirations += in.tenantNum(t, "expirations")
		quotas[t] = int(in.tenantNum(t, "ways"))
	}
	if len(quotas) != len(sh.tenants) {
		check(false, "INFO lists %d tenants, want %d", len(quotas), len(sh.tenants))
		return lines, ok
	}
	rebalances := in.num("rebalances")
	switch sh.name {
	case "kv-hot":
		fill := float64(sh.tenants[0].fillKeys)
		check(evictions <= fill/1000, "about 0 evictions: %.0f (limit %.0f, 0.1%% of the keys)", evictions, fill/1000)
		check(rebalances == 0, "no applied rebalance: %.0f", rebalances)
	case "kv-tenants":
		// The reuse set needs ceil(keys / slots per way) ways. Only miss
		// curves that favour it give it that many: curves that favour
		// nobody give the first (bulk) tenant every way its budget cap
		// allows, and that cap takes at most one way per rebalance from
		// a tenant at its budget.
		hot := slices.IndexFunc(sh.tenants, func(t tenantShape) bool { return t.name == "hot" })
		need := (sh.tenants[hot].keys + slotsPerWay - 1) / slotsPerWay
		check(rebalances >= 1, "applied rebalances >= 1: %.0f", rebalances)
		check(quotas[hot] >= need, "MinMisses gave the reuse set its ways: quotas %v (%s), want %s >= %d",
			quotas, tenantNames(sh), sh.tenants[hot].name, need)
		check(budgetEv > 0, "budget evictions > 0: %.0f", budgetEv)
		check(expirations > 0, "expirations > 0: %.0f", expirations)
	}
	return lines, ok
}

func tenantNames(sh kvShape) string {
	names := make([]string, len(sh.tenants))
	for i, t := range sh.tenants {
		names[i] = t.name
	}
	return strings.Join(names, " ")
}
