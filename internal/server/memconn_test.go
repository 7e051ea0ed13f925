package server

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/resp"
	"repro/pkg/plru"
)

// burstConn is an in-memory net.Conn that drives one session without a
// socket: reads deliver burst over and over (at most one copy per Read,
// so each Read into an empty parser buffer hands it exactly one burst),
// and writes are counted and discarded. After bursts copies (0 means no
// limit) reads return io.EOF.
type burstConn struct {
	burst  []byte
	bursts int

	off, served int // read position in burst; bursts fully delivered
	writes      int // Write calls
	written     int // bytes written
}

func (c *burstConn) Read(p []byte) (int, error) {
	if c.bursts > 0 && c.served == c.bursts {
		return 0, io.EOF
	}
	n := copy(p, c.burst[c.off:])
	if c.off += n; c.off == len(c.burst) {
		c.off = 0
		c.served++
	}
	return n, nil
}

func (c *burstConn) Write(p []byte) (int, error) {
	c.writes++
	c.written += len(p)
	return len(p), nil
}

func (c *burstConn) Close() error                     { return nil }
func (c *burstConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *burstConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *burstConn) SetDeadline(time.Time) error      { return nil }
func (c *burstConn) SetReadDeadline(time.Time) error  { return nil }
func (c *burstConn) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "mem" }
func (pipeAddr) String() string  { return "mem" }

// render encodes commands as one pipelined burst of multibulk frames.
func render(cmds ...[]string) []byte {
	var b strings.Builder
	w := resp.NewWriter(&b)
	for _, c := range cmds {
		w.WriteCommandString(c...)
	}
	w.Flush()
	return []byte(b.String())
}

// newTestServer builds an open single-tenant server without a listener.
func newTestServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := New(Config{Shards: 2, Sets: 64, Ways: 8, Policy: plru.BT})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.cache.Close() })
	return s
}

// getBurst stores n keys with size-byte values and returns a pipelined
// burst of GETs that hit each of them.
func getBurst(s *Server, n, size int) []byte {
	cmds := make([][]string, n)
	for i := range cmds {
		key := fmt.Sprintf("key:%04d", i)
		s.cache.Set(key, []byte(strings.Repeat("v", size)))
		cmds[i] = []string{"GET", key}
	}
	return render(cmds...)
}

// TestServeBurstOneWrite pins flush-on-idle with a reply buffer that
// holds a whole burst: 32 pipelined GET hits on 128-byte values (4352
// bytes of replies) leave the server in exactly one Write.
func TestServeBurstOneWrite(t *testing.T) {
	s := newTestServer(t)
	conn := &burstConn{burst: getBurst(s, 32, 128), bursts: 1}
	s.serveConn(conn)
	if want := 32 * len("$128\r\n"+strings.Repeat("v", 128)+"\r\n"); conn.written != want {
		t.Fatalf("server wrote %d bytes, want %d", conn.written, want)
	}
	if conn.writes != 1 {
		t.Fatalf("a 32-deep burst of GET hits took %d writes, want 1", conn.writes)
	}
}

// TestServerStoresOwnedCopies pins that SET and MSET store copies of the
// parser's borrowed arguments: the stored pairs must survive a pipeline
// of later commands that reuse (and overwrite) the parser's arena.
func TestServerStoresOwnedCopies(t *testing.T) {
	s := startServer(t, Config{Shards: 1, Sets: 64, Ways: 8, Policy: plru.BT})
	c := dial(t, s)

	cmds := [][]string{{"SET", "k", "v1"}, {"MSET", "m1", "a1", "m2", "b2"}}
	for i := 0; i < 64; i++ {
		cmds = append(cmds,
			[]string{"SET", "x", fmt.Sprintf("%02d", i)},
			[]string{"MSET", "y1", "zz", fmt.Sprintf("y%d", i%10), fmt.Sprintf("q%03d", i)},
			[]string{"GET", "k"})
	}
	cmds = append(cmds, []string{"GET", "k"}, []string{"MGET", "m1", "m2"})
	if _, err := c.conn.Write(render(cmds...)); err != nil {
		t.Fatal(err)
	}
	for i := range cmds[:len(cmds)-2] {
		if _, err := c.r.ReadReply(); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	if rep, err := c.r.ReadReply(); err != nil || rep.Null || string(rep.Str) != "v1" {
		t.Fatalf("GET k after the pipeline = %+v (%v), want v1", rep, err)
	}
	rep, err := c.r.ReadReply()
	if err != nil || len(rep.Array) != 2 || string(rep.Array[0].Str) != "a1" || string(rep.Array[1].Str) != "b2" {
		t.Fatalf("MGET m1 m2 after the pipeline = %+v (%v), want [a1 b2]", rep, err)
	}
}
