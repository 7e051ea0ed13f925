package server

import (
	"fmt"
	"strings"
	"testing"
)

// benchServe serves b.N commands of a repeating pipelined burst over an
// in-memory connection: parse, dispatch, cache call and reply encode,
// with one flush per burst and no syscalls.
func benchServe(b *testing.B, s *Server, burst []byte) {
	st := s.newConnState(&burstConn{burst: burst})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.serveOne(st) {
			b.Fatal("session ended")
		}
	}
}

// BenchmarkServeGet is one GET hit on a 128-byte value in a 32-deep
// pipeline.
func BenchmarkServeGet(b *testing.B) {
	s := newTestServer(b)
	benchServe(b, s, getBurst(s, 32, 128))
}

// BenchmarkServeSet is one SET of a 128-byte value in a 32-deep
// pipeline.
func BenchmarkServeSet(b *testing.B) {
	s := newTestServer(b)
	val := strings.Repeat("v", 128)
	cmds := make([][]string, 32)
	for i := range cmds {
		cmds[i] = []string{"SET", fmt.Sprintf("key:%04d", i), val}
	}
	benchServe(b, s, render(cmds...))
}
