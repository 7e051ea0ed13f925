package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/profiling"
	"repro/internal/replacement"
	"repro/internal/resp"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/cpacache"
	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

// The traced run (--trace 1) reports per-layer costs by calling each
// module's public functions from here, on the same seeded request stream
// the end-to-end run sends. Nothing inside the program is instrumented.

// replayReq is one request of the in-process replay, rendered once.
type replayReq struct {
	tenant int
	set    bool
	ttl    time.Duration
	key    string
	val    []byte
}

// replay is a workload's stream rendered for in-process use: the fill,
// then n measured requests interleaved over the connections as the
// daemon would receive them.
type replay struct {
	sh    kvShape
	fill  []replayReq
	reqs  []replayReq
	wire  []byte // every request's RESP command, back to back
	gets  int
	conns []pipeConn
	// quotas, when set, are installed before the fill: the quotas the
	// workload's daemon ended with, so the replay runs in its steady
	// state rather than at the even split it boots with.
	quotas []int
}

// pipeConn is one connection's share of the replay as a pipelining
// client sends it: its AUTH (if any), then its requests.
type pipeConn struct {
	auth   bool
	reqs   []int    // indexes into replay.reqs, in order
	cmds   int      // commands, AUTH included
	chunks [][]byte // the commands, sh.pipeline to a write
}

func newReplay(sh kvShape, seed uint64, n int) *replay {
	rp := &replay{sh: sh, conns: make([]pipeConn, len(sh.connTenant))}
	cmds := make([][][]byte, len(sh.connTenant))
	gens := newGens(sh, seed)
	// render returns the request and its RESP command as a client sends it.
	render := func(c int, r request) (replayReq, []byte) {
		g := gens[c]
		key := appendKey(nil, g.t.prefix, r.key)
		var buf bytes.Buffer
		w := resp.NewWriter(&buf)
		q := replayReq{tenant: sh.connTenant[c], set: r.set, key: string(key)}
		if r.set {
			q.val = appendValue(nil, key, r.version, g.t.valueSize)
			q.ttl = g.t.ttl
			if q.ttl > 0 {
				w.WriteCommand(cmdSET, key, q.val, cmdPX, []byte(fmt.Sprint(q.ttl.Milliseconds())))
			} else {
				w.WriteCommand(cmdSET, key, q.val)
			}
		} else {
			w.WriteCommand(cmdGET, key)
		}
		w.Flush()
		return q, buf.Bytes()
	}
	for c, g := range gens {
		if pw := g.t.password; pw != "" {
			var buf bytes.Buffer
			w := resp.NewWriter(&buf)
			w.WriteCommand([]byte("AUTH"), []byte(pw))
			w.Flush()
			cmds[c] = append(cmds[c], buf.Bytes())
			rp.conns[c].auth = true
		}
		for r, ok := g.fill(); ok; r, ok = g.fill() {
			q, _ := render(c, r)
			rp.fill = append(rp.fill, q)
		}
	}
	for i := 0; i < n; i++ {
		c := i % len(gens)
		q, wire := render(c, gens[c].next())
		rp.reqs = append(rp.reqs, q)
		rp.wire = append(rp.wire, wire...)
		cmds[c] = append(cmds[c], wire)
		rp.conns[c].reqs = append(rp.conns[c].reqs, i)
		if !q.set {
			rp.gets++
		}
	}
	for c, cs := range cmds {
		rp.conns[c].cmds = len(cs)
		for len(cs) > 0 {
			k := min(sh.pipeline, len(cs))
			rp.conns[c].chunks = append(rp.conns[c].chunks, bytes.Join(cs[:k], nil))
			cs = cs[k:]
		}
	}
	return rp
}

// newCache builds the daemon's cache (via the server's own constructor,
// so options match cpacached), installs the replay's quotas and writes
// the fill into it.
func (rp *replay) newCache() (*server.Server, *cpacache.Cache[string, []byte], error) {
	srv, err := server.New(rp.sh.serverConfig())
	if err != nil {
		return nil, nil, err
	}
	c := srv.Cache()
	if rp.quotas != nil {
		if err := c.SetQuotas(rp.quotas); err != nil {
			return nil, nil, err
		}
	}
	for _, q := range rp.fill {
		apply(c, q)
	}
	return srv, c, nil
}

// apply runs one request against the cache and returns the GET's value.
func apply(c *cpacache.Cache[string, []byte], q replayReq) ([]byte, bool) {
	if !q.set {
		return c.GetTenant(q.tenant, q.key)
	}
	if q.ttl > 0 {
		c.SetTenantTTL(q.tenant, q.key, q.val, q.ttl)
	} else {
		c.SetTenant(q.tenant, q.key, q.val)
	}
	return nil, false
}

// measure runs fn(i) over i = 0..n-1, repeating whole passes until at
// least budget has elapsed, and returns ns and allocations per call.
func measure(n int, budget time.Duration, fn func(i int)) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < budget {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(el.Nanoseconds()) / float64(calls), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// span is one traced call: name, parent span, start and end.
type span struct {
	id, parent uint32
	name       uint8
	start, end int64 // ns since the traced replay began
}

var spanNames = [...]string{"request", "resp.parse", "cpacache", "resp.encode"}

const (
	spanRequest = iota
	spanParse
	spanCache
	spanEncode
)

// pipeline replays reqs through parse → cache → encode in-process, as
// the server's serving loop does for one connection, flushing every
// depth replies. With spans non-nil it records a request span per
// request with one child per layer call, and returns them.
func pipeline(reqs []replayReq, wire []byte, c *cpacache.Cache[string, []byte], depth int, spans []span) ([]span, error) {
	r := resp.NewReader(bytes.NewReader(wire))
	w := resp.NewWriter(io.Discard)
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	for i := range reqs {
		var t0, t1, t2, t3, t4 int64
		if spans != nil {
			t0 = now()
		}
		args, err := r.ReadCommand()
		if err != nil {
			return spans, err
		}
		if spans != nil {
			t1 = now()
		}
		tenant := reqs[i].tenant
		key := string(args[1])
		var v []byte
		var hit bool
		if spans != nil {
			t2 = now()
		}
		if len(args) == 2 {
			v, hit = c.GetTenant(tenant, key)
		} else if reqs[i].ttl > 0 {
			c.SetTenantTTL(tenant, key, args[2], reqs[i].ttl)
		} else {
			c.SetTenant(tenant, key, args[2])
		}
		if spans != nil {
			t3 = now()
		}
		switch {
		case len(args) > 2:
			w.SimpleString("OK")
		case hit:
			w.Bulk(v)
		default:
			w.Null()
		}
		if (i+1)%depth == 0 {
			w.Flush()
		}
		if spans != nil {
			t4 = now()
			id := uint32(len(spans))
			spans = append(spans,
				span{id, id, spanRequest, t0, now()},
				span{id + 1, id, spanParse, t0, t1},
				span{id + 2, id, spanCache, t2, t3},
				span{id + 3, id, spanEncode, t3, t4})
		}
	}
	return spans, w.Flush()
}

// selfTimes sums each span name's self time (duration minus the part
// its children cover) over the spans.
func selfTimes(spans []span) [len(spanNames)]float64 {
	var self [len(spanNames)]float64
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent != s.id {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		self[s.name] += float64(s.end - s.start - child[i])
	}
	return self
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pipeListener hands in-memory net.Pipe connections to server.Serve.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error { l.once.Do(func() { close(l.done) }); return nil }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// serveReplay replays each connection's chunks to an in-memory server
// over net.Pipe and returns the server's CPU time and allocations per
// request, and the client's CPU time per request that was subtracted. The process's CPU over the
// replay also pays for the client goroutines and for both ends of each
// pipe; the same client against replyServer, which answers every chunk
// with its replies rendered in advance, measures that share, and it is
// subtracted.
func serveReplay(rp *replay) (cpuNS, allocs, clientNS float64, err error) {
	srv, _, err := rp.newCache()
	if err != nil {
		return 0, 0, 0, err
	}
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cpuNS, allocs, err = pipeReplay(rp, func(_ int, conn net.Conn) { ln.conns <- conn })
	ctx, cancel := context.WithTimeout(context.Background(), ioTimeout)
	defer cancel()
	err = errors.Join(err, srv.Shutdown(ctx), <-served)
	if err != nil {
		return 0, 0, 0, err
	}

	replies, err := rp.renderReplies()
	if err != nil {
		return 0, 0, 0, err
	}
	var wg sync.WaitGroup
	cliCPU, cliAllocs, err := pipeReplay(rp, func(c int, conn net.Conn) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replyServer(conn, rp.conns[c].chunks, replies[c])
		}()
	})
	wg.Wait()
	return cpuNS - cliCPU, allocs - cliAllocs, cliCPU, err
}

// pipeReplay runs the replay's client over one net.Pipe per connection,
// handing the other end to serve: each connection's chunks are written
// in order while every reply is read and refused if it is an error. It
// returns this process's CPU time and allocations per request.
func pipeReplay(rp *replay, serve func(c int, conn net.Conn)) (cpuNS, allocs float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	werrs := make([]error, len(rp.conns))
	rerrs := make([]error, len(rp.conns))
	var wg sync.WaitGroup
	for c, pc := range rp.conns {
		cli, end := net.Pipe()
		serve(c, end)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, ch := range pc.chunks {
				if _, err := cli.Write(ch); err != nil {
					werrs[c] = err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer cli.Close()
			r := newReplyReader(cli)
			for i := 0; i < pc.cmds; i++ {
				rep, err := r.read()
				if err == nil && rep.kind == resp.KindError {
					err = fmt.Errorf("error reply %q", rep.str)
				}
				if err != nil {
					rerrs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	n := float64(len(rp.reqs))
	return float64(cpu.Nanoseconds()) / n, float64(ms1.Mallocs-ms0.Mallocs) / n, errors.Join(firstErr(werrs), firstErr(rerrs))
}

// renderReplies renders, per connection and chunk, the replies the
// server sends: +OK to AUTH and SET, a GET's value from a fresh cache
// given the same requests in the same order, or null.
func (rp *replay) renderReplies() ([][][]byte, error) {
	_, c, err := rp.newCache()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	vals := make([][]byte, len(rp.reqs))
	for i, q := range rp.reqs {
		vals[i], _ = apply(c, q)
	}
	out := make([][][]byte, len(rp.conns))
	for ci, pc := range rp.conns {
		var one [][]byte // one rendered reply per command
		render := func(f func(w *resp.Writer)) {
			var buf bytes.Buffer
			w := resp.NewWriter(&buf)
			f(w)
			w.Flush()
			one = append(one, buf.Bytes())
		}
		if pc.auth {
			render(func(w *resp.Writer) { w.SimpleString("OK") })
		}
		for _, i := range pc.reqs {
			render(func(w *resp.Writer) {
				switch {
				case rp.reqs[i].set:
					w.SimpleString("OK")
				case vals[i] != nil:
					w.Bulk(vals[i])
				default:
					w.Null()
				}
			})
		}
		for range pc.chunks {
			k := min(rp.sh.pipeline, len(one))
			out[ci] = append(out[ci], bytes.Join(one[:k], nil))
			one = one[k:]
		}
	}
	return out, nil
}

// replyServer reads each chunk whole and answers it with its replies.
func replyServer(conn net.Conn, chunks, replies [][]byte) {
	defer conn.Close()
	var buf []byte
	for j, ch := range chunks {
		buf = slices.Grow(buf[:0], len(ch))[:len(ch)]
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		if _, err := conn.Write(replies[j]); err != nil {
			return
		}
	}
}

// runLayers is the traced run: the per-layer metrics for the workload's
// request stream (the kv-hot stream for sim-fig7), the simulator's
// layers, the exact daemon counts, the span self times, the remainder
// against the untraced end-to-end cost per request, and the tracing
// overhead.
func runLayers(o runOpts, rep *report) error {
	sh, own := kvShapes[o.workload]
	if !own {
		sh = kvShapes["kv-hot"]
	}
	selfTests(sh, o, rep)
	budget := o.seconds / 40 // per timed layer loop

	// Untraced daemon run, driven exactly as the end-to-end run drives it,
	// for the exact INFO counts and the end-to-end CPU cost per request
	// that the in-process layers are set against.
	plan := kvRounds(o)
	if own {
		var setups, minst []float64
		plan = kvWorkloadRounds(sh, o, rep, &setups, &minst)
	}
	res, err := runKV(sh, plan, o)
	if err != nil {
		return err
	}
	checkKV(rep, sh, res, own)
	// The median round, not the best tenth the end-to-end metric reports:
	// the in-process replays it is set against are single measurements.
	e2eNS := median(res.cpuPerReqUS()) * 1e3
	rep.notes["host_scale"] = hostScale(res.calib)
	reportInfo(rep, res)

	rp := newReplay(sh, o.seed, 50_000)
	if len(sh.tenants) > 1 {
		for t := range res.info.tenants {
			rp.quotas = append(rp.quotas, int(res.info.tenantNum(t, "ways")))
		}
	}
	n := len(rp.reqs)

	// RESP parse and encode.
	var rd *resp.Reader
	parseNS, parseAllocs := measure(n, budget, func(i int) {
		if i == 0 {
			rd = resp.NewReader(bytes.NewReader(rp.wire))
		}
		rd.ReadCommand()
	})
	rep.set("resp.parse_ns", "ns", parseNS)
	rep.set("resp.parse_allocs", "count", parseAllocs)

	_, c, err := rp.newCache()
	if err != nil {
		return err
	}
	defer c.Close()
	hits := make([][]byte, n)
	for i, q := range rp.reqs {
		if v, ok := apply(c, q); ok {
			hits[i] = v
		}
	}
	w := resp.NewWriter(io.Discard)
	encodeNS, _ := measure(n, budget, func(i int) {
		switch {
		case rp.reqs[i].set:
			w.SimpleString("OK")
		case hits[i] != nil:
			w.Bulk(hits[i])
		default:
			w.Null()
		}
		if i%sh.pipeline == sh.pipeline-1 {
			w.Flush()
		}
	})
	rep.set("resp.encode_ns", "ns", encodeNS)

	// Cache reads, serial and from nproc goroutines; then writes.
	getIdx, setIdx := opIndexes(rp.reqs)
	getNS, getAllocs := measure(len(getIdx), budget, func(i int) {
		q := &rp.reqs[getIdx[i]]
		c.GetTenant(q.tenant, q.key)
	})
	rep.set("cpacache.get_ns", "ns", getNS)
	rep.set("cpacache.get_allocs", "count", getAllocs)
	parNS := parallelGets(c, rp.reqs, getIdx, o.nproc, budget)
	rep.set("cpacache.get_ns_par", "ns", parNS)
	rep.set("cpacache.get_scaling", "ratio", getNS*float64(o.nproc)/parNS)
	setNS, setAllocs := measure(len(setIdx), budget, func(i int) { apply(c, rp.reqs[setIdx[i]]) })
	rep.set("cpacache.set_ns", "ns", setNS)
	rep.set("cpacache.set_allocs", "count", setAllocs)

	// Rebalance on a cache warmed with the stream, and MinMisses on the
	// miss curves captured from it.
	var rebal []float64
	var curves [][]uint64
	for chunk := 0; chunk < 8; chunk++ {
		for _, q := range rp.reqs[chunk*n/8 : (chunk+1)*n/8] {
			apply(c, q)
		}
		curves = c.MissCurves()
		t0 := time.Now()
		if _, err := c.Rebalance(); err != nil {
			return err
		}
		rebal = append(rebal, float64(time.Since(t0).Nanoseconds()))
	}
	rep.set("cpacache.rebalance_ns", "ns", median(rebal))
	mmNS, _ := measure(1, budget, func(int) { cpapart.MinMisses{}.Allocate(curves, c.Ways()) })
	rep.set("cpapart.minmisses_ns", "ns", mmNS)

	// The whole server over an in-memory connection.
	srvCPU, srvAllocs, cliCPU, err := serveReplay(rp)
	if err != nil {
		return fmt.Errorf("in-memory server replay: %w", err)
	}
	getFrac := float64(rp.gets) / float64(n)
	cacheNS := getFrac*getNS + (1-getFrac)*setNS
	rep.set("server.req_ns", "ns", srvCPU)
	rep.set("server.req_allocs", "count", srvAllocs)
	rep.set("server.self_ns", "ns", srvCPU-parseNS-cacheNS-encodeNS)
	rep.set("net.self_ns", "ns", e2eNS-srvCPU)
	rep.notes["server_replay_client_ns_per_req"] = cliCPU
	rep.notes["e2e_daemon_cpu_ns_per_req"] = e2eNS

	// Traced against untraced replay of the same stream from the same
	// fresh cache state.
	if err := traceReplay(o, rep, rp, e2eNS); err != nil {
		return err
	}

	return simLayers(o, rep, budget)
}

func opIndexes(reqs []replayReq) (gets, sets []int) {
	for i, q := range reqs {
		if q.set {
			sets = append(sets, i)
		} else {
			gets = append(gets, i)
		}
	}
	return gets, sets
}

// parallelGets runs the GETs from p goroutines at once for budget and
// returns the wall ns per GET per goroutine.
func parallelGets(c *cpacache.Cache[string, []byte], reqs []replayReq, idx []int, p int, budget time.Duration) float64 {
	ops := make([]int, p)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := g * len(idx) / p; time.Since(t0) < budget; {
				for end := i + 256; i < end; i++ {
					q := &reqs[idx[i%len(idx)]]
					c.GetTenant(q.tenant, q.key)
				}
				n += 256
			}
			ops[g] = n
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range ops {
		total += n
	}
	return float64(time.Since(t0).Nanoseconds()) * float64(p) / float64(total)
}

// traceReplay runs the in-process pipeline once untraced and once traced,
// writes the spans, and reports self times, the unexplained remainder
// against the daemon's untraced CPU per request, and the overhead.
func traceReplay(o runOpts, rep *report, rp *replay, e2eNS float64) error {
	run := func(spans []span) ([]span, time.Duration, error) {
		_, c, err := rp.newCache()
		if err != nil {
			return nil, 0, err
		}
		defer c.Close()
		runtime.GC()
		t0 := time.Now()
		spans, err = pipeline(rp.reqs, rp.wire, c, rp.sh.pipeline, spans)
		return spans, time.Since(t0), err
	}
	_, plain, err := run(nil)
	if err != nil {
		return err
	}
	spans, traced, err := run(make([]span, 0, 4*len(rp.reqs)))
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.csv", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	n := float64(len(rp.reqs))
	self := selfTimes(spans)
	var sum float64
	for i, name := range spanNames {
		rep.set("trace."+name+".self_ns", "ns", self[i]/n)
		sum += self[i] / n
	}
	rep.set("trace.spans", "count", float64(len(spans)))
	rep.set("trace.unexplained_ns", "ns", e2eNS-sum)
	rep.set("trace.overhead_ratio", "ratio", traced.Seconds()/plain.Seconds()-1)
	rep.notes["spans_file"] = path
	return nil
}

// reportInfo turns the daemon's final INFO into the exact per-layer
// counts. Tenant 1 reads 0 on single-tenant workloads.
func reportInfo(rep *report, res *kvResult) {
	in := res.info
	sets := float64(res.cnt.sets + res.fill.sets)
	var ev, bev, exp float64
	for t := range in.tenants {
		ev += in.tenantNum(t, "evictions")
		bev += in.tenantNum(t, "budget_evictions")
		exp += in.tenantNum(t, "expirations")
	}
	for t := 0; t < 2; t++ {
		var hr, q float64
		if t < len(in.tenants) {
			hr, q = in.tenantNum(t, "hit_rate"), in.tenantNum(t, "ways")
		}
		rep.set(fmt.Sprintf("info.hit_rate.tenant%d", t), "ratio", hr)
		rep.set(fmt.Sprintf("info.quota.tenant%d", t), "ways", q)
	}
	rep.set("info.evictions_per_set", "ratio", ev/sets)
	rep.set("info.budget_evictions_per_set", "ratio", bev/sets)
	rep.set("info.expirations", "count", exp)
	rep.set("info.rebalances_applied", "count", in.num("rebalances"))
	rep.set("info.rebalances_skipped", "count", in.num("rebalances_skipped"))
	rep.set("info.policy_switches", "count", in.num("policy_switches"))
	rep.set("info.oom_rejected", "count", in.num("oom_rejected_ops"))
	rep.set("info.rate_limited", "count", in.num("rate_limited_ops"))
}

// simLayers times the simulator's layers on an internal/workload trace:
// the L2 model, the pseudo-LRU profiling monitors (BT and NRU), the BT
// policy's touch, victim and stack-position estimator; and the sweep's
// CPU utilization (the full sweep on sim-fig7, the probe otherwise).
func simLayers(o runOpts, rep *report, budget time.Duration) error {
	ws, err := workload.ByThreads(2)
	if err != nil {
		return err
	}
	prof, err := workload.Get(ws[0].Benchmarks[0])
	if err != nil {
		return err
	}
	const lineBytes, ways = 128, 16
	l2Sets := fig7Options(o.nproc).L2SizeKB * 1024 / lineBytes / ways
	g := trace.NewGenerator(prof, 0, o.seed, lineBytes)
	var addrs []uint64
	for len(addrs) < 1<<18 {
		if ev := g.Next(); ev.Kind == trace.Mem {
			addrs = append(addrs, ev.Addr)
		}
	}
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: l2Sets * ways * lineBytes, LineBytes: lineBytes,
		Ways: ways, Policy: replacement.BT, Cores: 1, Seed: o.seed})
	ns, _ := measure(len(addrs), budget, func(i int) { l2.Access(0, addrs[i]) })
	rep.set("cache.access_ns", "ns", ns)
	for name, kind := range map[string]replacement.Kind{"bt": replacement.BT, "nru": replacement.NRU} {
		m := profiling.NewMonitor(profiling.Config{L2Sets: l2Sets, Ways: ways, LineBytes: lineBytes,
			SampleRate: fig7Options(o.nproc).SampleRate, Kind: kind, NRUScale: 0.75, Seed: o.seed})
		ns, _ := measure(len(addrs), budget, func(i int) { m.Observe(addrs[i]) })
		rep.set("profiling.observe_ns."+name, "ns", ns)
	}
	bt := plru.NewBTPolicy(l2Sets, ways)
	set := func(i int) int { return int(addrs[i]/lineBytes) % l2Sets }
	way := func(i int) int { return int(addrs[i]>>20) % ways }
	ns, _ = measure(len(addrs), budget, func(i int) { bt.Touch(set(i), way(i), 0) })
	rep.set("plru.touch_ns", "ns", ns)
	ns, _ = measure(len(addrs), budget, func(i int) { bt.Victim(set(i), 0, plru.Full(ways)) })
	rep.set("plru.victim_ns", "ns", ns)
	ns, _ = measure(len(addrs), budget, func(i int) { bt.EstStackPos(set(i), way(i)) })
	rep.set("plru.est_stack_pos_ns", "ns", ns)

	if o.workload == "sim-fig7" {
		sw, err := runSweep(context.Background(), o.nproc)
		if err != nil {
			return err
		}
		sw.check(rep)
		rep.set("experiments.cpu_utilization", "ratio", sw.utilization(o.nproc))
		return nil
	}
	cpu0, t0 := processCPU(), time.Now()
	if _, err := simProbe(context.Background(), o.nproc); err != nil {
		return err
	}
	rep.set("experiments.cpu_utilization", "ratio", (processCPU()-cpu0).Seconds()/(time.Since(t0).Seconds()*float64(o.nproc)))
	return nil
}
