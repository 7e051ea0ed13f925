package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/cmp"
	"repro/internal/cpu"
	"repro/internal/optref"
	"repro/internal/textplot"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// This file is the OPT column for the fig6-9 sweeps: for every policy ×
// workload × size cell it reports the policy's demand hit rate against
// the offline-optimal (Belady) hit rate on the same access stream, as
// a hit-rate-vs-OPT fraction and a miss-based competitive ratio.
//
// The trace OPT replays is captured from the non-partitioned LRU
// baseline simulation of the same cell via cmp.SetTracer. For one core
// the demand stream is policy-independent (the address sequence only
// depends on the workload), so the comparison is exact; for multicore
// cells the global interleaving shifts slightly with per-core timing,
// so OPT-on-the-LRU-trace is the fixed, deterministic yardstick every
// policy is graded against (documented in EXPERIMENTS.md). OPT replays
// are memoized per workload × size like any other run and execute
// through the same worker pool, so scoreboards stay bit-identical at
// any parallelism.

// OptPolicies is the default scoreboard policy set: every registered
// policy kind.
func OptPolicies() []plru.Kind { return plru.Kinds() }

// optKey is the memo key for an OPT replay (OPT is policy-independent:
// one replay per workload × size).
func optKey(w workload.Workload, sizeKB int) string {
	return fmt.Sprintf("OPT|%s|%d", w.Name, sizeKB)
}

// RunOPT returns the Belady-optimal demand-hit statistics for the
// workload on a sizeKB L2: it simulates the non-partitioned LRU
// baseline with a trace hook attached, then replays the recorded demand
// stream through the mask-constrained OPT engine. The result is
// memoized; concurrent callers share one simulation.
func (h *Harness) RunOPT(ctx context.Context, w workload.Workload, sizeKB int) (optref.Stats, error) {
	return h.optRuns.Do(ctx, optKey(w, sizeKB), func(ctx context.Context) (optref.Stats, error) {
		l2 := h.l2Config(plru.LRU, w.Threads(), sizeKB)
		sets := l2.SizeBytes / l2.LineBytes / l2.Ways
		lineShift := 7 // 128 B lines

		cfg := cmp.Config{
			Workload: w,
			L2:       l2,
			Params:   cpu.DefaultParams(),
			L1:       cpu.DefaultL1Config(128),
			MaxInsts: h.opt.Insts,
		}
		sys, err := cmp.New(cfg)
		if err != nil {
			return optref.Stats{}, fmt.Errorf("experiments: %s: %w", optKey(w, sizeKB), err)
		}
		tr := &optref.Trace{}
		sys.SetTracer(func(core int, addr uint64) {
			line := addr >> lineShift
			tr.Access(core, int(line%uint64(sets)), line)
		})
		if _, err := sys.RunContext(ctx); err != nil {
			return optref.Stats{}, err
		}
		st, err := optref.Replay(optref.Config{Sets: sets, Ways: l2.Ways, Cores: w.Threads()}, tr)
		if err != nil {
			return optref.Stats{}, err
		}
		h.simulated.Add(1)
		h.progress("ran %-26s OPT hit rate=%.4f (%d refs)", optKey(w, sizeKB), st.HitRate(), tr.Len())
		return st, nil
	})
}

// OptCell is one scoreboard entry: a policy's demand hit rate vs OPT's
// on one workload × size cell.
type OptCell struct {
	Cores    int
	Workload string
	SizeKB   int
	Policy   plru.Kind

	HitRate    float64 // policy demand hit rate
	OptHitRate float64 // Belady hit rate on the captured trace

	// HitRateVsOpt is HitRate/OptHitRate (1.0 = optimal; can exceed 1 on
	// multicore cells where interleavings differ slightly).
	HitRateVsOpt float64
	// CompetitiveRatio is (1-HitRate)/(1-OptHitRate): the policy's miss
	// rate as a multiple of optimal (1.0 = optimal, higher = worse).
	CompetitiveRatio float64
}

// OptScoreboardData is the hit-rate-vs-OPT scoreboard across policy ×
// workload × size.
type OptScoreboardData struct {
	Cores    []int
	Sizes    []int // KB
	Policies []plru.Kind
	Cells    []OptCell // ordered: cores, then size, then workload, then policy
}

// OptScoreboard runs every (policy, workload, size) cell for the given
// core counts plus one OPT replay per (workload, size), and assembles
// the competitive-analysis scoreboard. Policy runs and OPT replays all
// execute through the harness pool; assembly is serial, so the result
// is bit-identical at any Parallelism.
func (h *Harness) OptScoreboard(ctx context.Context, coreCounts, sizesKB []int, policies []plru.Kind) (*OptScoreboardData, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{1, 2, 4, 8}
	}
	if len(sizesKB) == 0 {
		sizesKB = []int{h.opt.L2SizeKB}
	}
	if len(policies) == 0 {
		policies = OptPolicies()
	}
	data := &OptScoreboardData{Cores: coreCounts, Sizes: sizesKB, Policies: policies}

	perCore := make([][]workload.Workload, len(coreCounts))
	var specs []RunSpec
	type optJob struct {
		w      workload.Workload
		sizeKB int
	}
	var optJobs []optJob
	for ci, cores := range coreCounts {
		var ws []workload.Workload
		if cores == 1 {
			ws = workload.SingleThread()
		} else {
			var err error
			ws, err = workload.ByThreads(cores)
			if err != nil {
				return nil, err
			}
		}
		ws = h.limitWorkloads(ws)
		perCore[ci] = ws
		for _, w := range ws {
			for _, sizeKB := range sizesKB {
				for _, pol := range policies {
					specs = append(specs, RunSpec{W: w, Kind: pol, SizeKB: sizeKB})
				}
				optJobs = append(optJobs, optJob{w: w, sizeKB: sizeKB})
			}
		}
	}

	// Prefetch policy runs and OPT replays concurrently. RunOPT acquires
	// its own pool slot per replay (it is a sched.Cache entry like any
	// run), so these goroutines never nest slot acquisitions.
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		prefErr error
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if prefErr == nil && err != nil {
			prefErr = err
			cancel()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fail(h.Prefetch(pctx, specs))
	}()
	for _, j := range optJobs {
		wg.Add(1)
		go func(j optJob) {
			defer wg.Done()
			_, err := h.RunOPT(pctx, j.w, j.sizeKB)
			fail(err)
		}(j)
	}
	wg.Wait()
	if prefErr != nil {
		return nil, prefErr
	}

	for ci, cores := range coreCounts {
		for _, sizeKB := range sizesKB {
			for _, w := range perCore[ci] {
				opt, err := h.RunOPT(ctx, w, sizeKB)
				if err != nil {
					return nil, err
				}
				for _, pol := range policies {
					res, err := h.Run(ctx, w, pol, "", sizeKB)
					if err != nil {
						return nil, err
					}
					cell := OptCell{
						Cores:      cores,
						Workload:   w.Name,
						SizeKB:     sizeKB,
						Policy:     pol,
						HitRate:    res.DemandHitRate(),
						OptHitRate: opt.HitRate(),
					}
					if cell.OptHitRate > 0 {
						cell.HitRateVsOpt = cell.HitRate / cell.OptHitRate
					}
					if optMiss := 1 - cell.OptHitRate; optMiss > 0 {
						cell.CompetitiveRatio = (1 - cell.HitRate) / optMiss
					}
					data.Cells = append(data.Cells, cell)
				}
			}
		}
	}
	return data, nil
}

// GeomeanRatios returns the geometric-mean hit-rate-vs-OPT and
// competitive ratio per policy over every cell, in Policies order.
func (d *OptScoreboardData) GeomeanRatios() (hitVsOpt, competitive []float64) {
	hitVsOpt = make([]float64, len(d.Policies))
	competitive = make([]float64, len(d.Policies))
	for pi, pol := range d.Policies {
		var sumH, sumC float64
		n := 0
		for _, c := range d.Cells {
			if c.Policy != pol || c.HitRateVsOpt <= 0 || c.CompetitiveRatio <= 0 {
				continue
			}
			sumH += math.Log(c.HitRateVsOpt)
			sumC += math.Log(c.CompetitiveRatio)
			n++
		}
		if n > 0 {
			hitVsOpt[pi] = math.Exp(sumH / float64(n))
			competitive[pi] = math.Exp(sumC / float64(n))
		}
	}
	return hitVsOpt, competitive
}

// Render formats the scoreboard: one hit-rate-vs-OPT table per cores ×
// size group (rows workloads, columns policies, OPT hit rate alongside)
// and a per-policy geomean summary.
func (d *OptScoreboardData) Render() string {
	var sb strings.Builder
	sb.WriteString(textplot.Heading("OPT scoreboard: demand hit rate vs offline-optimal (Belady)"))

	type group struct{ cores, sizeKB int }
	cellsBy := make(map[group]map[string][]OptCell) // group -> workload -> cells
	var workloadsBy = make(map[group][]string)
	for _, c := range d.Cells {
		g := group{c.Cores, c.SizeKB}
		if cellsBy[g] == nil {
			cellsBy[g] = make(map[string][]OptCell)
		}
		if _, seen := cellsBy[g][c.Workload]; !seen {
			workloadsBy[g] = append(workloadsBy[g], c.Workload)
		}
		cellsBy[g][c.Workload] = append(cellsBy[g][c.Workload], c)
	}

	for _, cores := range d.Cores {
		for _, sizeKB := range d.Sizes {
			g := group{cores, sizeKB}
			ws := workloadsBy[g]
			if len(ws) == 0 {
				continue
			}
			headers := []string{"Workload", "OPT hit"}
			for _, p := range d.Policies {
				headers = append(headers, p.String())
			}
			var rows [][]string
			for _, w := range ws {
				cells := cellsBy[g][w]
				row := []string{w, fmt.Sprintf("%.4f", cells[0].OptHitRate)}
				for _, p := range d.Policies {
					val := "-"
					for _, c := range cells {
						if c.Policy == p {
							val = fmt.Sprintf("%.4f", c.HitRateVsOpt)
							break
						}
					}
					row = append(row, val)
				}
				rows = append(rows, row)
			}
			fmt.Fprintf(&sb, "\n%d core(s), %d KB L2 — hit-rate-vs-OPT (1.0 = optimal):\n", cores, sizeKB)
			sb.WriteString(textplot.Table(headers, rows))
		}
	}

	hitVsOpt, competitive := d.GeomeanRatios()
	order := make([]int, len(d.Policies))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return hitVsOpt[order[a]] > hitVsOpt[order[b]] })
	sb.WriteString("\nPer-policy geomean over all cells (sorted best-first):\n")
	var rows [][]string
	for _, pi := range order {
		rows = append(rows, []string{
			d.Policies[pi].String(),
			fmt.Sprintf("%.4f", hitVsOpt[pi]),
			fmt.Sprintf("%.4f", competitive[pi]),
		})
	}
	sb.WriteString(textplot.Table([]string{"Policy", "HitRate/OPT", "CompetitiveRatio"}, rows))
	return sb.String()
}

// CSV emits machine-readable scoreboard rows. The column set is the
// contract `benchjson -opt-gate` diffs goldens against.
func (d *OptScoreboardData) CSV() string {
	var sb strings.Builder
	sb.WriteString("cores,workload,size_kb,policy,hit_rate,opt_hit_rate,hit_rate_vs_opt,competitive_ratio\n")
	for _, c := range d.Cells {
		fmt.Fprintf(&sb, "%d,%s,%d,%s,%.6f,%.6f,%.6f,%.6f\n",
			c.Cores, c.Workload, c.SizeKB, c.Policy, c.HitRate, c.OptHitRate, c.HitRateVsOpt, c.CompetitiveRatio)
	}
	return sb.String()
}
