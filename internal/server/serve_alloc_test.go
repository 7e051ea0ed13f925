// Allocation guards are meaningless under the race detector's
// instrumented allocator, so this file is excluded from -race runs.

//go:build !race

package server

import (
	"strings"
	"testing"
)

// serveAllocs runs one session over burst and reports the average heap
// allocations of serving one command of it (parse, dispatch, cache call,
// reply and flush).
func serveAllocs(t *testing.T, s *Server, burst []byte) float64 {
	t.Helper()
	st := s.newConnState(&burstConn{burst: burst})
	return testing.AllocsPerRun(1000, func() {
		if !s.serveOne(st) {
			t.Fatal("session ended")
		}
	})
}

// TestServeGetZeroAlloc pins the server's GET path — borrowed parse,
// constant command name, key view into the cache, reply — at zero heap
// allocations, for hits and misses alike.
func TestServeGetZeroAlloc(t *testing.T) {
	s := newTestServer(t)
	if avg := serveAllocs(t, s, getBurst(s, 32, 128)); avg != 0 {
		t.Errorf("pipelined GET hit allocates %v allocs/op, want 0", avg)
	}
	if avg := serveAllocs(t, s, render([]string{"GET", "absent"})); avg != 0 {
		t.Errorf("GET miss allocates %v allocs/op, want 0", avg)
	}
}

// TestServeSetAllocs pins SET at two allocations: the key and the value
// the cache stores, copied out of the parser's arena.
func TestServeSetAllocs(t *testing.T) {
	s := newTestServer(t)
	val := strings.Repeat("v", 128)
	for _, cmd := range [][]string{{"SET", "key:0001", val}, {"SET", "key:0002", val, "PX", "60000"}} {
		if avg := serveAllocs(t, s, render(cmd)); avg > 2 {
			t.Errorf("%s %s allocates %v allocs/op, want <= 2", cmd[0], strings.Join(cmd[3:], " "), avg)
		}
	}
}
