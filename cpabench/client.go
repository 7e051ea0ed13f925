package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/resp"
)

// ioTimeout bounds every wait for a reply; expiry counts the request as
// failed (a timeout) and ends the connection's phase.
const ioTimeout = 10 * time.Second

var (
	cmdGET = []byte("GET")
	cmdSET = []byte("SET")
	cmdPX  = []byte("PX")
)

// counts is the outcome tally of one connection (or of a whole run once
// merged). Every request sent is attempted; failed is error replies,
// timeouts and wrong values together.
type counts struct {
	attempted, errReplies, timeouts, wrongValues uint64
	gets, hits, sets                             uint64
	firstError                                   string
}

func (c *counts) failed() uint64 { return c.errReplies + c.timeouts + c.wrongValues }

func (c *counts) merge(o *counts) {
	c.attempted += o.attempted
	c.errReplies += o.errReplies
	c.timeouts += o.timeouts
	c.wrongValues += o.wrongValues
	c.gets += o.gets
	c.hits += o.hits
	c.sets += o.sets
	if c.firstError == "" {
		c.firstError = o.firstError
	}
}

func (c *counts) fail(kind *uint64, format string, args ...any) {
	*kind++
	if c.firstError == "" {
		c.firstError = fmt.Sprintf(format, args...)
	}
}

// kvConn is one client connection driving one tenant's seeded stream.
type kvConn struct {
	nc      net.Conn
	r       *replyReader
	w       *resp.Writer
	g       *gen
	t       *tenantShape
	led     *ledger
	px      []byte
	key     []byte // request rendering (the sending goroutine)
	val     []byte
	ckey    []byte // reply checking (the receiving goroutine)
	cnt     counts
	samples []sample // open-loop latencies from the due time
}

func dialKV(addr string, g *gen, led *ledger) (*kvConn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	c := &kvConn{nc: nc, r: newReplyReader(nc), w: resp.NewWriter(nc), g: g, t: g.t, led: led}
	if g.t.ttl > 0 {
		c.px = strconv.AppendInt(nil, g.t.ttl.Milliseconds(), 10)
	}
	if g.t.password != "" {
		if err := c.auth(g.t.password); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *kvConn) auth(password string) error {
	c.nc.SetDeadline(time.Now().Add(ioTimeout))
	c.w.WriteCommand([]byte("AUTH"), []byte(password))
	if err := c.w.Flush(); err != nil {
		return err
	}
	rep, err := c.r.read()
	if err != nil {
		return err
	}
	if rep.kind == resp.KindError {
		return fmt.Errorf("AUTH refused: %s", rep.str)
	}
	return nil
}

// write renders req into the connection's buffer (unflushed). A SET is
// entered in the ledger as sent before it can reach the server; a GET
// records the version acknowledged so far as the floor for its hit.
func (c *kvConn) write(req request) request {
	c.key = appendKey(c.key[:0], c.t.prefix, req.key)
	if req.set {
		c.led.sent[req.key].Store(req.version)
		c.val = appendValue(c.val[:0], c.key, req.version, c.t.valueSize)
		if c.px != nil {
			c.w.WriteCommand(cmdSET, c.key, c.val, cmdPX, c.px)
		} else {
			c.w.WriteCommand(cmdSET, c.key, c.val)
		}
		return req
	}
	req.version = c.led.acked[req.key].Load()
	c.w.WriteCommand(cmdGET, c.key)
	return req
}

// check classifies one reply and reports whether the request succeeded.
func (c *kvConn) check(req request, rep reply) bool {
	c.cnt.attempted++
	if rep.kind == resp.KindError {
		c.cnt.fail(&c.cnt.errReplies, "error reply: %s", rep.str)
		return false
	}
	if req.set {
		if rep.kind != resp.KindSimple || string(rep.str) != "OK" {
			c.cnt.fail(&c.cnt.wrongValues, "SET %s%08d: unexpected reply %q", c.t.prefix, req.key, rep.str)
			return false
		}
		c.cnt.sets++
		c.led.acked[req.key].Store(req.version)
		return true
	}
	c.cnt.gets++
	if rep.kind == resp.KindBulk && rep.null {
		return true
	}
	c.ckey = appendKey(c.ckey[:0], c.t.prefix, req.key)
	v, ok := checkValue(c.ckey, rep.str, c.t.valueSize)
	if rep.kind != resp.KindBulk || !ok {
		c.cnt.fail(&c.cnt.wrongValues, "GET %s: value fails its key/checksum check: %.40q", c.ckey, rep.str)
		return false
	}
	if sent := c.led.sent[req.key].Load(); v < req.version || v > sent {
		c.cnt.fail(&c.cnt.wrongValues, "GET %s: version %#x outside [%#x, %#x]", c.ckey, v, req.version, sent)
		return false
	}
	c.cnt.hits++
	return true
}

// batch writes n requests from next, flushes, and checks n replies: one
// closed-loop round trip at pipeline depth n. It returns false when next
// ran dry (a finished fill) and the error that ended the connection.
func (c *kvConn) batch(reqs []request, next func() (request, bool)) (bool, error) {
	n := 0
	more := true
	for n < len(reqs) {
		r, ok := next()
		if !ok {
			more = false
			break
		}
		reqs[n] = c.write(r)
		n++
	}
	if n == 0 {
		return false, nil
	}
	c.nc.SetDeadline(time.Now().Add(ioTimeout))
	if err := c.w.Flush(); err != nil {
		c.cnt.attempted += uint64(n)
		c.cnt.fail(&c.cnt.timeouts, "write: %v", err)
		return false, err
	}
	for i := 0; i < n; i++ {
		rep, err := c.r.read()
		if err != nil {
			c.cnt.attempted += uint64(n - i)
			c.cnt.timeouts += uint64(n - i - 1)
			c.cnt.fail(&c.cnt.timeouts, "read: %v", err)
			return false, err
		}
		c.check(reqs[i], rep)
	}
	return more, nil
}

// fill writes this connection's share of the warm-fill keys.
func (c *kvConn) fill(depth int) error {
	reqs := make([]request, depth)
	for {
		more, err := c.batch(reqs, c.g.fill)
		if err != nil || !more {
			return err
		}
	}
}

// closedLoop runs the connections in lockstep until the deadline: each
// step sends one pipelined batch of depth requests on every connection
// and waits for all their replies, so the mix of tenants stays fixed
// however the host shares the CPU between them. It returns how many
// requests completed.
func closedLoop(conns []*kvConn, until time.Time, depth int) (uint64, error) {
	steps := make([]chan struct{}, len(conns))
	done := make(chan error, len(conns))
	var wg sync.WaitGroup
	var before uint64
	for i, c := range conns {
		before += c.cnt.attempted
		steps[i] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := make([]request, depth)
			next := func() (request, bool) { return c.g.next(), true }
			for range steps[i] {
				_, err := c.batch(reqs, next)
				done <- err
			}
		}()
	}
	var err error
	for err == nil && time.Now().Before(until) {
		for _, step := range steps {
			step <- struct{}{}
		}
		for range conns {
			if e := <-done; e != nil && err == nil {
				err = e
			}
		}
	}
	for _, step := range steps {
		close(step)
	}
	wg.Wait()
	var after uint64
	for _, c := range conns {
		after += c.cnt.attempted
	}
	return after - before, err
}

// inflight is one open-loop request awaiting its reply.
type inflight struct {
	req request
	due time.Duration // since the phase start
}

// openTick is the open-loop arrival grain: every tick the requests due
// in it are sent together, timed from the tick.
const openTick = 200 * time.Microsecond

// openLoop offers rate requests/s, spread round-robin over conns, for
// dur. Each request is timed from when it was due, so a stall in the
// daemon (or in the generator) is charged to every request it delays;
// it returns how late, in ns, the generator sent each tick.
func openLoop(conns []*kvConn, rate float64, dur time.Duration) (late []float64) {
	// Each queue holds one connection's unanswered requests, at most ten
	// seconds' worth at the offered rate; a full queue stalls the sender,
	// which shows up as generator lateness.
	qcap := max(1024, int(rate*10))
	queues := make([]chan inflight, len(conns))
	for i, c := range conns {
		queues[i] = make(chan inflight, qcap)
		c.samples = slices.Grow(c.samples[:0], int(rate*dur.Seconds())/len(conns)+1)
	}
	late = make([]float64, 0, dur/openTick+1)
	// The window allocates nothing more, so the benchmark's own garbage
	// collector, which the simulation probes between rounds keep busy,
	// is run now and held off until the window ends.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range conns {
		// The sender flushes without a deadline of its own; this one only
		// bounds a write the daemon never drains.
		c.nc.SetWriteDeadline(start.Add(dur + ioTimeout))
		wg.Add(1)
		go func(c *kvConn, q chan inflight) {
			defer wg.Done()
			c.receive(q, start)
		}(c, queues[i])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		late = sendSchedule(conns, queues, rate, dur, start, late)
	}()
	<-done
	wg.Wait()
	return late
}

// sendSchedule is the open-loop generator. It runs on a locked OS thread
// and sleeps with nanosleep, whose wake-up error is tens of microseconds,
// rather than on the Go timer, which in an otherwise idle process can
// wake a millisecond late. It never spins, so it leaves the CPU to the
// daemon between ticks; its wake-up error is charged to the latencies
// and printed as generator lateness.
func sendSchedule(conns []*kvConn, queues []chan inflight, rate float64, dur time.Duration, start time.Time, late []float64) []float64 {
	defer realtime()()
	defer func() {
		for _, q := range queues {
			close(q)
		}
	}()
	sent := 0
	for tick := time.Duration(0); tick < dur; tick += openTick {
		sleepUntil(start.Add(tick))
		late = append(late, float64(time.Since(start)-tick))
		due := int(rate * (tick + openTick).Seconds())
		for ; sent < due; sent++ {
			i := sent % len(conns)
			queues[i] <- inflight{req: conns[i].write(conns[i].g.next()), due: tick}
		}
		for _, c := range conns {
			if c.w.Flush() != nil {
				// The write error is latched; closing fails the
				// receiver's read, which counts what is queued.
				c.nc.Close()
			}
		}
	}
	return late
}

// receive checks replies in order against the queue of sent requests.
func (c *kvConn) receive(q chan inflight, start time.Time) {
	defer realtime()()
	broken := false
	for p := range q {
		if broken {
			c.cnt.attempted++
			c.cnt.timeouts++
			continue
		}
		c.nc.SetReadDeadline(time.Now().Add(ioTimeout))
		rep, err := c.r.read()
		if err != nil {
			c.cnt.attempted++
			c.cnt.fail(&c.cnt.timeouts, "read: %v", err)
			broken = true
			c.nc.Close() // unblocks the sender's writes
			continue
		}
		lat := time.Since(start) - p.due
		if c.check(p.req, rep) {
			c.samples = append(c.samples, sample{lat: lat, set: p.req.set})
		}
	}
}

// realtime locks the calling goroutine to its OS thread and moves the
// thread to SCHED_FIFO at the lowest real-time priority, so that it runs
// as soon as it wakes instead of waiting out the time slice of a daemon
// thread: the benchmark shares the host's CPUs with the daemon, a client
// on another machine would not. The class takes CAP_SYS_NICE; whether it
// was granted is recorded in the provenance. The returned function puts
// the thread back in the normal class and unlocks it, so no real-time
// thread is left to other goroutines and the thread lives on (a thread
// that exits takes with it any daemon it forked, through Pdeathsig).
func realtime() (restore func()) {
	runtime.LockOSThread()
	if setScheduler(schedFIFO, 1) == nil {
		realtimeGranted.Store(true)
	}
	return func() {
		setScheduler(schedOther, 0)
		runtime.UnlockOSThread()
	}
}

const (
	schedOther = 0
	schedFIFO  = 1
)

var realtimeGranted atomic.Bool

// setScheduler sets the calling thread's scheduling class and priority.
func setScheduler(policy, priority int) error {
	param := struct{ priority int32 }{int32(priority)}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param)))
	if errno != 0 {
		return errno
	}
	return nil
}

// sleepUntil waits for t with nanosleep.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// reply is one server reply. str aliases the reader's buffer and is
// valid until the next read.
type reply struct {
	kind byte
	str  []byte
	null bool
}

// replyReader parses replies without allocating, so the client's own
// garbage collection stays out of the latencies it measures.
type replyReader struct {
	br      *bufio.Reader
	consume int // bytes of the previous bulk payload still to discard
}

// replyBuffer bounds a bulk reply's size: every value and INFO fits.
const replyBuffer = 64 << 10

func newReplyReader(r io.Reader) *replyReader {
	return &replyReader{br: bufio.NewReaderSize(r, replyBuffer)}
}

func (r *replyReader) read() (reply, error) {
	if r.consume > 0 {
		if _, err := r.br.Discard(r.consume); err != nil {
			return reply{}, err
		}
		r.consume = 0
	}
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		return reply{}, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return reply{}, fmt.Errorf("malformed reply line %q", line)
	}
	kind, body := line[0], line[1:len(line)-2]
	switch kind {
	case resp.KindSimple, resp.KindError, resp.KindInt:
		return reply{kind: kind, str: body}, nil
	case resp.KindBulk:
		if string(body) == "-1" {
			return reply{kind: kind, null: true}, nil
		}
		n, err := strconv.Atoi(string(body))
		if err != nil || n < 0 || n+2 > replyBuffer {
			return reply{}, fmt.Errorf("bad bulk length %q", body)
		}
		b, err := r.br.Peek(n + 2)
		if err != nil {
			return reply{}, err
		}
		if b[n] != '\r' || b[n+1] != '\n' {
			return reply{}, fmt.Errorf("bulk reply not CRLF-terminated")
		}
		r.consume = n + 2
		return reply{kind: kind, str: b[:n]}, nil
	}
	return reply{}, fmt.Errorf("unexpected reply type %q", kind)
}
