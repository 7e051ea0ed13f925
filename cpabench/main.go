// Command cpabench is the repository's end-to-end and per-layer
// benchmark. It drives a cpacached daemon built from the same checkout
// as a subprocess over loopback (kv-hot, kv-tenants), runs the Figure 7
// sweep in-process (sim-fig7), checks every output it reads, and prints
// one JSON result as its last line.
//
// Usage (run.sh builds both binaries and passes -daemon):
//
//	cpabench -daemon <cpacached> --workload kv-hot --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 replays
// the same seeded streams in-process through each layer's public calls
// and reports the per-layer metrics. See README.md for every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runOpts is what every phase of a run needs to know.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	nproc    int
	daemon   string // cpacached binary
	root     string // checkout root, for provenance
	outDir   string // where the traced run writes its spans
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, notes and correctness verdicts.
type report struct {
	res    result
	notes  map[string]any     // printed before the result, never gated
	raw    map[string]float64 // timing metrics before host scaling
	faults []string           // reasons the run is not correct
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}, notes: map[string]any{}, raw: map[string]float64{}}
}

func (r *report) set(name, unit string, v float64) { r.res.Metrics[name] = metric{v, unit} }

// setTimed reports a timing at the reference host speed (see calib.go):
// a time (lowerBetter) divided by scale, a rate multiplied by it. The raw
// value goes to the notes.
func (r *report) setTimed(name, unit string, raw, scale float64, lowerBetter bool) {
	v := raw * scale
	if lowerBetter {
		v = raw / scale
	}
	r.set(name, unit, v)
	r.raw[name] = raw
}

func (r *report) fault(format string, args ...any) {
	r.faults = append(r.faults, fmt.Sprintf(format, args...))
	r.res.Correct = false
}

func (r *report) count(c *counts) {
	r.res.Attempted += c.attempted
	r.res.Failed += c.failed()
	if c.failed() > 0 {
		r.fault("%d of %d requests failed (%d error replies, %d timeouts, %d wrong values); first: %s",
			c.failed(), c.attempted, c.errReplies, c.timeouts, c.wrongValues, c.firstError)
	}
}

func main() {
	var (
		o       runOpts
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced replay")
	)
	flag.StringVar(&o.workload, "workload", "", "kv-hot, kv-tenants or sim-fig7")
	flag.StringVar(&o.daemon, "daemon", "", "path to the cpacached binary built from this checkout")
	flag.StringVar(&o.root, "root", ".", "checkout root (provenance)")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()
	o.seed, o.seconds, o.nproc = *seed, time.Duration(*seconds)*time.Second, runtime.NumCPU()
	if _, ok := workloads[o.workload]; !ok {
		fatalf("unknown --workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.daemon == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -daemon, --seconds >= 1 and --trace 0 or 1")
	}

	rep := newReport()
	var err error
	if *trace == 1 {
		err = runLayers(o, rep)
	} else {
		err = workloads[o.workload](o, rep)
		rep.set("error_rate", "ratio", float64(rep.res.Failed)/float64(rep.res.Attempted)+errorRateFloor)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	for k, v := range rep.res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fatalf("metric %s is %v", k, v.Value)
		}
	}
	rep.notes["provenance"] = provenance(o)
	rep.notes["faults"] = rep.faults
	rep.notes["raw"] = rep.raw
	notes, _ := json.Marshal(rep.notes)
	fmt.Printf("notes: %s\n", notes)
	out, _ := json.Marshal(rep.res)
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cpabench: "+format+"\n", args...)
	os.Exit(1)
}

// errorRateFloor is added to every error rate so that a clean run reads
// one in a million rather than 0, which a relative gate cannot compare.
const errorRateFloor = 1e-6

// workloads maps each --workload to its end-to-end run. Every run reports
// every end-to-end metric: each workload measures its own subject for
// the whole --seconds, and the other subject through a short control
// probe (the kv-hot mix for sim-fig7; a two-simulation sweep slice for
// the kv workloads) whose prediction for a change elsewhere is no change.
var workloads = map[string]func(runOpts, *report) error{
	"kv-hot":     runKVWorkload,
	"kv-tenants": runKVWorkload,
	"sim-fig7":   runSimWorkload,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func runKVWorkload(o runOpts, rep *report) error {
	sh := kvShapes[o.workload]
	selfTests(sh, o, rep)
	var setups, minst []float64
	res, err := runKV(sh, kvWorkloadRounds(sh, o, rep, &setups, &minst), o)
	if err != nil {
		return err
	}
	scale := reportKV(rep, sh, res, true)
	setups = append(setups, res.setup.Seconds())
	rep.setTimed("setup_s", "s", bestTenth(setups, true), scale, true)
	rep.notes["setup_s_each"] = setups
	rep.setTimed("sim_minst_per_s", "Minst/s", bestTenth(minst, false), scale, false)
	rep.notes["sim_minst_per_s_source"] = "control probe: 2- and 4-core fig7 workloads under M-0.75N, between rounds"
	rep.notes["sim_minst_per_s_each"] = minst
	return nil
}

// kvWorkloadRounds is a kv workload's measured rounds with, between
// them and spread over the run so a slow stretch of the host cannot hit
// every repetition, ten extra set-ups (a daemon booted, filled and
// drained beside the measured one), appended to setups, and ten runs of
// the sim_minst_per_s control probe, appended to minst.
func kvWorkloadRounds(sh kvShape, o runOpts, rep *report, setups, minst *[]float64) kvPlan {
	plan := kvRounds(o)
	plan.between = func(i int) error {
		switch i % 4 {
		case 1:
			s, d, err := bootKV(sh, o)
			if err != nil {
				return err
			}
			rep.count(&s.fill)
			*setups = append(*setups, d.Seconds())
			if err := s.close(); err != nil {
				rep.fault("daemon drain: %v", err)
			}
		case 3:
			r, err := simProbe(context.Background(), o.nproc)
			*minst = append(*minst, r)
			return err
		}
		return nil
	}
	return plan
}

// kvRounds is the measured part of a kv workload's daemon run: forty
// rounds of a closed-loop window (2/5 of each round) and an open-loop
// window, --seconds in all.
func kvRounds(o runOpts) kvPlan {
	return kvPlan{rounds: 40, closed: o.seconds / 100, open: o.seconds * 3 / 200}
}

func runSimWorkload(o runOpts, rep *report) error {
	selfTests(kvShapes["kv-hot"], o, rep)
	// The kv control probe runs the kv-hot rounds. The harness set-up is
	// timed after every round, and one sweep (about 8 s on two vCPUs) runs
	// per 10 s of --seconds, at least one, spread evenly between the rounds.
	var setups, rates, utils []float64
	plan := kvRounds(o)
	sweeps := max(1, int(o.seconds/(10*time.Second)))
	plan.between = func(i int) error {
		d, err := simSetup(o.nproc)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if (i+1)%(plan.rounds/sweeps) != 0 || len(rates) == sweeps {
			return nil
		}
		sw, err := runSweep(context.Background(), o.nproc)
		if err != nil {
			return err
		}
		rates = append(rates, sw.minstPerS)
		utils = append(utils, sw.utilization(o.nproc))
		sw.check(rep)
		return nil
	}
	res, err := runKV(kvShapes["kv-hot"], plan, o)
	if err != nil {
		return err
	}
	scale := reportKV(rep, kvShapes["kv-hot"], res, false)
	rep.setTimed("setup_s", "s", bestTenth(setups, true), scale, true)
	rep.notes["setup_s_each"] = setups
	rep.setTimed("sim_minst_per_s", "Minst/s", bestTenth(rates, false), scale, false)
	rep.notes["sweeps"] = map[string]any{"minst_per_s": rates, "cpu_utilization": utils}
	rep.notes["kv_metrics_source"] = "control probe: the kv-hot rounds, with the sweeps between them"
	return nil
}

// selfTests runs the verifier and determinism self-tests; a failure makes
// the run incorrect.
func selfTests(sh kvShape, o runOpts, rep *report) {
	if err := verifierSelfTest(); err != nil {
		rep.fault("%v", err)
	}
	h, err := determinismSelfTest(sh, o.seed)
	if err != nil {
		rep.fault("%v", err)
	}
	rep.notes["stream_hash"] = fmt.Sprintf("%016x", h)
}

// reportKV turns a daemon run into the kv end-to-end metrics, notes and
// correctness verdicts, and returns the run's host scale.
func reportKV(rep *report, sh kvShape, res *kvResult, own bool) float64 {
	checkKV(rep, sh, res, own)
	scale := hostScale(res.calib)
	rep.notes["host_scale"] = scale
	rep.setTimed("throughput_rps", "req/s", bestTenth(res.throughputs(), false), scale, false)
	rep.setTimed("server_cpu_us_per_req", "us", bestTenth(res.cpuPerReqUS(), true), scale, true)
	lat := res.latency()
	rep.setTimed("get_p50_us", "us", lat.get50/1e3, scale, true)
	rep.setTimed("get_p99_us", "us", lat.get99/1e3, scale, true)
	rep.setTimed("set_p50_us", "us", lat.set50/1e3, scale, true)
	rep.setTimed("set_p99_us", "us", lat.set99/1e3, scale, true)
	rep.set("hit_rate", "ratio", res.hitRate())
	rep.set("mem_overhead_ratio", "ratio", res.memOverhead())
	tail := func(set bool) map[string]any {
		return map[string]any{"run_p99_us": res.runTail(set, 0.99), "run_p99.9_us": res.runTail(set, 0.999),
			"run_max_us": res.runTail(set, 1)}
	}
	rep.notes["latency"] = map[string]any{
		"offered_rps":         sh.openRate,
		"rounds":              len(res.rounds),
		"samples_per_round":   map[string]float64{"get": lat.gets, "set": lat.sets},
		"median_round_p99_us": map[string]float64{"get": lat.medGet99 / 1e3, "set": lat.medSet99 / 1e3},
		"round_p99_us":        map[string][]float64{"get": usRounded(lat.get99s), "set": usRounded(lat.set99s)},
		"get":                 tail(false),
		"set":                 tail(true),
		"throughput_rounds":   res.throughputs(),
		"cpu_us_rounds":       res.cpuPerReqUS(),
		"generator_late_us":   map[string]any{"p50": rank(res.late, 0.5) / 1e3, "p99": rank(res.late, 0.99) / 1e3, "max": rank(res.late, 1) / 1e3},
	}
	return scale
}

func usRounded(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = math.Round(v/1e2) / 10
	}
	return out
}

// checkKV counts a daemon run's requests and failures, checks its drain,
// and, for the workload's own run (not a control probe), prints its
// validity assertions and faults the run when one fails.
func checkKV(rep *report, sh kvShape, res *kvResult, own bool) {
	rep.count(&res.fill)
	rep.count(&res.cnt)
	if res.drainErr != nil {
		rep.fault("daemon drain: %v", res.drainErr)
	}
	if !own {
		return
	}
	lines, ok := validity(sh, res.info)
	rep.notes["validity"] = lines
	if !ok {
		rep.fault("%s validity assertions failed: %v", sh.name, lines)
	}
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// provenance records where a result came from.
func provenance(o runOpts) map[string]any {
	return map[string]any{
		"cpu":               cpuModel(),
		"nproc":             o.nproc,
		"gomaxprocs_bench":  runtime.GOMAXPROCS(0),
		"gomaxprocs_daemon": o.nproc,
		"client_realtime":   realtimeGranted.Load(),
		"go":                runtime.Version(),
		"seed":              o.seed,
		"workload":          o.workload,
		"commit":            commit(o.root),
		"measured_seconds":  o.seconds.Seconds(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source the run was built from: the git commit when
// the checkout is a repository, else a hash over its Go sources.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:12])
}
