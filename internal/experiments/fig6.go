package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/textplot"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// Fig6Data holds Figure 6: non-partitioned LRU, NRU and BT relative to
// LRU for 1-, 2-, 4- and 8-core CMPs, for the three metrics. Entries are
// geometric means over the Table II workloads of per-workload ratios.
type Fig6Data struct {
	Cores    []int
	Policies []plru.Kind
	// Rel[metric][coreIdx][policyIdx]; metrics: 0 throughput, 1 harmonic
	// mean, 2 weighted speedup. Harmonic mean and weighted speedup are
	// only defined for >= 2 cores (as in the paper's Figure 6(b,c)).
	Rel [3][][]float64
}

// MetricNames labels Fig6Data.Rel's first index.
var MetricNames = [3]string{"Throughput", "Harmonic mean", "Weighted speedup"}

// Fig6 runs the Figure 6 experiment. Policies must include
// plru.LRU, which is the baseline.
func (h *Harness) Fig6(ctx context.Context, policies []plru.Kind) (*Fig6Data, error) {
	if len(policies) == 0 {
		policies = []plru.Kind{plru.LRU, plru.NRU, plru.BT}
	}
	data := &Fig6Data{Cores: []int{1, 2, 4, 8}, Policies: policies}
	for m := range data.Rel {
		data.Rel[m] = make([][]float64, len(data.Cores))
	}

	// Gather every simulation the figure needs — runs plus isolation
	// baselines — and push them through the worker pool before the
	// deterministic serial assembly below.
	perCore := make([][]workload.Workload, len(data.Cores))
	var specs []RunSpec
	for ci, cores := range data.Cores {
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
			for _, pol := range policies {
				specs = append(specs, RunSpec{W: w, Kind: pol, SizeKB: h.opt.L2SizeKB})
			}
			for _, b := range w.Benchmarks {
				specs = append(specs, isoSpec(b, h.opt.L2SizeKB))
			}
		}
	}
	if err := h.Prefetch(ctx, specs); err != nil {
		return nil, err
	}

	for ci := range data.Cores {
		ws := perCore[ci]

		// rel[workload][policy] summaries.
		perPolicy := make([][]metrics.Summary, len(policies))
		for pi := range perPolicy {
			perPolicy[pi] = make([]metrics.Summary, len(ws))
		}
		for wi, w := range ws {
			var base metrics.Summary
			for pi, pol := range policies {
				res, err := h.Run(ctx, w, pol, "", h.opt.L2SizeKB)
				if err != nil {
					return nil, err
				}
				sum, err := h.Summarize(ctx, w, res, h.opt.L2SizeKB)
				if err != nil {
					return nil, err
				}
				if pol == plru.LRU {
					base = sum
				}
				perPolicy[pi][wi] = sum
			}
			if base.Throughput == 0 {
				return nil, fmt.Errorf("experiments: fig6 needs LRU in the policy list")
			}
			for pi := range policies {
				perPolicy[pi][wi] = perPolicy[pi][wi].Relative(base)
			}
		}
		for m := 0; m < 3; m++ {
			data.Rel[m][ci] = make([]float64, len(policies))
		}
		for pi := range policies {
			agg := metrics.Aggregate(perPolicy[pi])
			data.Rel[0][ci][pi] = agg.Throughput
			data.Rel[1][ci][pi] = agg.HarmonicMean
			data.Rel[2][ci][pi] = agg.WeightedSpeedup
		}
	}
	return data, nil
}

// Render formats Figure 6 as tables and bar charts.
func (d *Fig6Data) Render() string {
	var sb strings.Builder
	sb.WriteString(textplot.Heading("Figure 6: non-partitioned pseudo-LRU vs LRU (relative, geomean)"))
	for m, name := range MetricNames {
		headers := []string{"Cores"}
		for _, p := range d.Policies {
			headers = append(headers, p.String())
		}
		var rows [][]string
		for ci, cores := range d.Cores {
			if m > 0 && cores == 1 {
				continue // HM / WS undefined for one thread
			}
			row := []string{fmt.Sprint(cores)}
			for pi := range d.Policies {
				row = append(row, fmt.Sprintf("%.4f", d.Rel[m][ci][pi]))
			}
			rows = append(rows, row)
		}
		sb.WriteString("\n" + name + ":\n")
		sb.WriteString(textplot.Table(headers, rows))
	}
	// Bar chart of relative throughput at each core count.
	sb.WriteString("\nRelative throughput (zoomed 0.90..1.02, as in the paper):\n")
	for ci, cores := range d.Cores {
		labels := make([]string, len(d.Policies))
		vals := make([]float64, len(d.Policies))
		for pi, p := range d.Policies {
			labels[pi] = fmt.Sprintf("%d cores %-6s", cores, p)
			vals[pi] = d.Rel[0][ci][pi]
		}
		sb.WriteString(textplot.Bars(labels, vals, 0.90, 1.02, 40))
	}
	return sb.String()
}

// CSV emits machine-readable rows: metric,cores,policy,value.
func (d *Fig6Data) CSV() string {
	var sb strings.Builder
	sb.WriteString("metric,cores,policy,relative_value\n")
	for m, name := range MetricNames {
		for ci, cores := range d.Cores {
			if m > 0 && cores == 1 {
				continue
			}
			for pi, p := range d.Policies {
				fmt.Fprintf(&sb, "%s,%d,%s,%.6f\n", name, cores, p, d.Rel[m][ci][pi])
			}
		}
	}
	return sb.String()
}
