// Package cpu models one core of the paper's CMP: an event-driven timing
// model that consumes a synthetic trace, runs a private L1 data cache and
// a branch predictor, and charges latency for L2 and memory accesses.
//
// This is the simulator-substrate substitution for the paper's Turandot
// out-of-order core (DESIGN.md §5): the 8-wide window is summarized by the
// benchmark's BaseIPC, the front end by the simulated tournament predictor
// and BTB penalties, and memory-level parallelism by the profile's
// MLPOverlap factor that hides part of every L2/memory penalty.
package cpu

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/pkg/plru"
)

// Params are the latency parameters of Table II, shared by all cores.
type Params struct {
	L2HitPenalty      uint64 // L1-miss/L2-hit penalty in cycles (paper: 11)
	MemPenalty        uint64 // additional L2-miss penalty (paper: 250)
	MispredictPenalty uint64 // branch direction misprediction
	BTBMissPenalty    uint64 // taken branch missing in the BTB (paper: min 3)
}

// DefaultParams returns the paper's processor setup.
func DefaultParams() Params {
	return Params{
		L2HitPenalty:      11,
		MemPenalty:        250,
		MispredictPenalty: 12,
		BTBMissPenalty:    3,
	}
}

// DefaultL1Config returns the paper's private L1 data cache (32 KB 2-way
// with the experiment's line size).
func DefaultL1Config(lineBytes int) cache.Config {
	return cache.Config{
		Name:      "L1D",
		SizeBytes: 32 * 1024,
		LineBytes: lineBytes,
		Ways:      2,
		Policy:    plru.LRU,
		Cores:     1,
	}
}

// SharedL2 is the core's view of the shared cache, implemented by the cmp
// system so the CPA can observe every access.
type SharedL2 interface {
	// Access performs a demand L2 access by `core` at core-cycle `now`
	// and reports whether it hit plus, on a miss, the memory latency in
	// cycles (the paper's constant 250 or the DRAM model's per-access
	// value). Demand accesses are observed by the profiling logic.
	Access(core int, addr uint64, write bool, now float64) (hit bool, memCycles uint64)
	// Writeback delivers a dirty L1 victim line to the L2. Writebacks
	// bypass the profiling logic (they are not program accesses).
	Writeback(core int, addr uint64)
}

// Stats are the core's accumulated event counts.
type Stats struct {
	Insts        uint64
	L1Accesses   uint64
	L1Misses     uint64
	L1Writebacks uint64
	L2Accesses   uint64
	L2Misses     uint64
	Branches     uint64
	Mispredicts  uint64
	BTBMisses    uint64
}

// Core is one simulated core.
type Core struct {
	id     int
	gen    *trace.Generator
	prof   trace.Profile
	params Params
	l1     *cache.Cache
	bp     *bpred.Predictor
	l2     SharedL2

	cycles float64
	stats  Stats
}

// New builds a core running the given profile.
func New(id int, prof trace.Profile, seed uint64, l1cfg cache.Config, params Params, l2 SharedL2) *Core {
	return &Core{
		id:     id,
		gen:    trace.NewGenerator(prof, id, seed, l1cfg.LineBytes),
		prof:   prof,
		params: params,
		l1:     cache.New(l1cfg),
		bp:     bpred.New(bpred.DefaultConfig()),
		l2:     l2,
	}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Profile returns the benchmark profile the core runs.
func (c *Core) Profile() trace.Profile { return c.prof }

// Cycles returns the core's local clock.
func (c *Core) Cycles() float64 { return c.cycles }

// Insts returns committed instructions.
func (c *Core) Insts() uint64 { return c.stats.Insts }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// IPC returns instructions per cycle so far (0 before any work).
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.stats.Insts) / c.cycles
}

// Step consumes one trace event, advancing the core's clock.
func (c *Core) Step() {
	e := c.gen.Next()
	c.stats.Insts += uint64(e.Insts)
	c.cycles += float64(e.Insts) / c.prof.BaseIPC

	switch e.Kind {
	case trace.Branch:
		c.stats.Branches++
		out := c.bp.Lookup(e.Addr, e.Taken)
		if !out.DirectionCorrect {
			c.stats.Mispredicts++
			c.cycles += float64(c.params.MispredictPenalty)
		} else if !out.BTBHit {
			c.stats.BTBMisses++
			c.cycles += float64(c.params.BTBMissPenalty)
		}
	case trace.Mem:
		c.stats.L1Accesses++
		r := c.l1.AccessRW(0, e.Addr, e.Write)
		if r.Writeback {
			// Dirty L1 victim: deliver it to the L2 (no stall; the
			// write buffer hides it, but the traffic is real).
			c.stats.L1Writebacks++
			c.l2.Writeback(c.id, r.EvictedAddr)
		}
		if r.Hit {
			return // L1 hits are pipelined away
		}
		c.stats.L1Misses++
		c.stats.L2Accesses++
		hit, memCycles := c.l2.Access(c.id, e.Addr, e.Write, c.cycles)
		penalty := c.params.L2HitPenalty
		if !hit {
			c.stats.L2Misses++
			penalty += memCycles
		}
		if e.Write {
			// Stores retire through the store buffer: no pipeline stall,
			// only the traffic and energy are accounted.
			return
		}
		c.cycles += float64(penalty) * (1 - c.prof.MLPOverlap)
	}
}
