// Package cmp assembles and runs the full CMP simulation: N cores with
// private L1 data caches sharing one L2, optionally governed by a dynamic
// cache partitioning system (internal/core).
//
// Scheduling: the run loop always steps the core with the smallest local
// clock, so shared-L2 accesses interleave in global time order and the CPA
// repartitions at deterministic global-cycle boundaries. Cores that reach
// the per-thread instruction target keep running (to preserve contention,
// as in the paper's methodology) until every core has reached it; each
// core's IPC is measured at its own crossing point.
package cmp

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// Config describes one simulation.
type Config struct {
	Workload workload.Workload // one benchmark per core
	L2       cache.Config      // shared L2 (Cores must equal workload threads)
	CPA      *core.Config      // nil = unpartitioned
	Params   cpu.Params        // core latencies
	L1       cache.Config      // per-core private L1 template
	MaxInsts uint64            // per-thread instruction target
	// DRAM, when non-nil, replaces the constant memory penalty with the
	// banked open-row memory model (internal/dram). nil keeps the
	// paper's flat Params.MemPenalty.
	DRAM *dram.Config
}

// DefaultL2Config returns the paper's shared L2 (2 MB, 16-way, 128 B
// lines) for the given policy and core count.
func DefaultL2Config(kind plru.Kind, cores int) cache.Config {
	return cache.Config{
		Name:      "L2",
		SizeBytes: 2 << 20,
		LineBytes: 128,
		Ways:      16,
		Policy:    kind,
		Cores:     cores,
		Seed:      12345,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Workload.Threads() == 0 {
		return fmt.Errorf("cmp: workload is empty")
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L2.Cores != c.Workload.Threads() {
		return fmt.Errorf("cmp: L2 has %d cores, workload has %d threads",
			c.L2.Cores, c.Workload.Threads())
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("cmp: L1 line %dB != L2 line %dB", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.MaxInsts == 0 {
		return fmt.Errorf("cmp: MaxInsts must be positive")
	}
	if c.CPA != nil {
		if err := c.CPA.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CoreResult holds one core's measurements at its crossing point.
type CoreResult struct {
	Benchmark string
	Insts     uint64
	Cycles    float64
	IPC       float64
	Stats     cpu.Stats
}

// Results of one simulation.
type Results struct {
	Workload     string
	ConfigName   string // CPA acronym or policy name
	PerCore      []CoreResult
	FinishCycles float64 // global cycle when the last core crossed
	// Whole-run event totals (for the power model): these cover the full
	// run including post-crossing interference execution.
	L2Accesses   uint64
	L2Misses     uint64
	MemWrites    uint64 // dirty-line traffic to memory (L2 writebacks + L2-missing L1 writebacks)
	ATDObserves  uint64
	Repartitions uint64
	// Demand-only L2 totals: program accesses through Access, excluding
	// the L1 writeback updates folded into L2Accesses. This is the
	// population a recorded optref trace replays, so OPT comparisons use
	// these, not L2Accesses.
	DemandAccesses uint64
	DemandHits     uint64
}

// DemandHitRate returns DemandHits/DemandAccesses (0 for an idle run).
func (r Results) DemandHitRate() float64 {
	if r.DemandAccesses > 0 {
		return float64(r.DemandHits) / float64(r.DemandAccesses)
	}
	return 0
}

// Throughput returns the summed per-core IPC.
func (r Results) Throughput() float64 {
	var t float64
	for _, c := range r.PerCore {
		t += c.IPC
	}
	return t
}

// System is a runnable CMP simulation.
type System struct {
	cfg   Config
	l2    *cache.Cache
	cpa   *core.System
	cores []*cpu.Core

	clock float64 // global time = min over cores (the stepping core's clock)

	// Per-core snapshots backing the core.PerfSource implementation.
	lastInsts  []uint64
	lastCycles []float64

	memWrites uint64       // L1 writebacks that missed the L2 (straight to DRAM)
	mem       *dram.Memory // nil = constant memory latency

	demandAccesses uint64 // program accesses through Access (no writebacks)
	demandHits     uint64
	tracer         func(core int, addr uint64) // demand-access capture hook
}

// SetTracer registers a hook invoked for every demand L2 access (in
// global interleaved order, before the access executes), the capture
// point internal/optref records Belady replay traces from. Writebacks
// are not traced — they are not program accesses. A nil fn disables
// tracing.
func (s *System) SetTracer(fn func(core int, addr uint64)) { s.tracer = fn }

// New builds the system. The L2's replacement policy comes from cfg.L2;
// when a CPA config is present its policy must match (checked by
// core.NewSystem).
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, l2: cache.New(cfg.L2)}
	if cfg.DRAM != nil {
		if err := cfg.DRAM.Validate(); err != nil {
			return nil, err
		}
		s.mem = dram.New(*cfg.DRAM)
	}
	if cfg.CPA != nil {
		sys, err := core.NewSystem(*cfg.CPA, s.l2)
		if err != nil {
			return nil, err
		}
		s.cpa = sys
	}
	for i, b := range cfg.Workload.Benchmarks {
		prof, err := workload.Get(b)
		if err != nil {
			return nil, err
		}
		l1 := cfg.L1
		l1.Name = fmt.Sprintf("L1D%d", i)
		s.cores = append(s.cores, cpu.New(i, prof, workload.Seed(b), l1, cfg.Params, s))
	}
	s.lastInsts = make([]uint64, len(s.cores))
	s.lastCycles = make([]float64, len(s.cores))
	if s.cpa != nil {
		s.cpa.SetPerfSource(s)
	}
	return s, nil
}

// PerfSince implements core.PerfSource: the instructions and cycles the
// core consumed since the previous repartition's query.
func (s *System) PerfSince(coreID int) (uint64, float64) {
	c := s.cores[coreID]
	insts, cycles := c.Insts(), c.Cycles()
	di := insts - s.lastInsts[coreID]
	dc := cycles - s.lastCycles[coreID]
	s.lastInsts[coreID], s.lastCycles[coreID] = insts, cycles
	return di, dc
}

// L2Cache exposes the shared cache (tests, examples).
func (s *System) L2Cache() *cache.Cache { return s.l2 }

// CPA exposes the partitioning system (nil when unpartitioned).
func (s *System) CPA() *core.System { return s.cpa }

// Access implements cpu.SharedL2: it feeds the profiling monitor,
// performs the L2 access and, on a miss, prices the memory access.
func (s *System) Access(coreID int, addr uint64, write bool, now float64) (bool, uint64) {
	if s.cpa != nil {
		s.cpa.OnAccess(coreID, addr)
	}
	if s.tracer != nil {
		s.tracer(coreID, addr)
	}
	s.demandAccesses++
	if s.l2.AccessRW(coreID, addr, write).Hit {
		s.demandHits++
		return true, 0
	}
	if s.mem != nil {
		return false, s.mem.Access(addr, now)
	}
	return false, s.cfg.Params.MemPenalty
}

// Memory exposes the DRAM model (nil when the constant penalty is used).
func (s *System) Memory() *dram.Memory { return s.mem }

// Writeback implements cpu.SharedL2: a dirty L1 victim updates the L2
// without being profiled (it is not a program access). A writeback that
// misses the L2 goes straight to memory; it does not allocate.
func (s *System) Writeback(coreID int, addr uint64) {
	if s.l2.Contains(addr) {
		s.l2.AccessRW(coreID, addr, true)
		return
	}
	s.memWrites++
}

// Run executes the simulation until every core has committed
// cfg.MaxInsts instructions and returns the measurements.
func (s *System) Run() Results {
	res, _ := s.RunContext(context.Background())
	return res
}

// cancelCheckEvery is how many step-loop iterations pass between context
// polls in RunContext — coarse enough to stay off the hot path, fine
// enough that cancellation lands within a fraction of a millisecond.
const cancelCheckEvery = 4096

// RunContext is Run with cooperative cancellation: the step loop polls
// ctx every few thousand steps and returns ctx.Err() (with zero Results)
// once it is done. A background context adds no measurable overhead.
func (s *System) RunContext(ctx context.Context) (Results, error) {
	n := len(s.cores)
	crossed := make([]bool, n)
	results := make([]CoreResult, n)
	remaining := n

	done := ctx.Done()
	sinceCheck := 0
	for remaining > 0 {
		if done != nil {
			if sinceCheck++; sinceCheck >= cancelCheckEvery {
				sinceCheck = 0
				select {
				case <-done:
					return Results{}, ctx.Err()
				default:
				}
			}
		}
		// Pick the core with the smallest local clock (ties: lowest id).
		min := 0
		for i := 1; i < n; i++ {
			if s.cores[i].Cycles() < s.cores[min].Cycles() {
				min = i
			}
		}
		c := s.cores[min]
		s.clock = c.Cycles()
		if s.cpa != nil {
			s.cpa.Tick(uint64(s.clock))
		}
		c.Step()

		if !crossed[min] && c.Insts() >= s.cfg.MaxInsts {
			crossed[min] = true
			remaining--
			results[min] = CoreResult{
				Benchmark: s.cfg.Workload.Benchmarks[min],
				Insts:     c.Insts(),
				Cycles:    c.Cycles(),
				IPC:       float64(c.Insts()) / c.Cycles(),
				Stats:     c.Stats(),
			}
		}
	}

	res := Results{
		Workload:   s.cfg.Workload.Name,
		ConfigName: s.configName(),
		PerCore:    results,
		L2Accesses: s.l2.Stats().TotalAccesses(),
		L2Misses:   s.l2.Stats().TotalMisses(),
		MemWrites:  s.l2.Stats().TotalWritebacks() + s.memWrites,

		DemandAccesses: s.demandAccesses,
		DemandHits:     s.demandHits,
	}
	for _, c := range s.cores {
		if c.Cycles() > res.FinishCycles {
			res.FinishCycles = c.Cycles()
		}
	}
	if s.cpa != nil {
		res.Repartitions = s.cpa.Repartitions()
		for _, m := range s.cpa.Monitors() {
			res.ATDObserves += m.Observed()
		}
	}
	return res, nil
}

func (s *System) configName() string {
	if s.cpa != nil && s.cpa.Config().Acronym != "" {
		return s.cpa.Config().Acronym
	}
	return "none-" + s.cfg.L2.Policy.String()
}
