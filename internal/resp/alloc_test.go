// Allocation guards are meaningless under the race detector's
// instrumented allocator, so this file is excluded from -race runs.

//go:build !race

package resp

import (
	"strings"
	"testing"
)

func parseAllocs(t *testing.T, read func(*Reader) ([][]byte, error)) float64 {
	t.Helper()
	r := NewReader(&loopReader{frame: frameOf("SET", "key:0001", strings.Repeat("v", 128))})
	return testing.AllocsPerRun(1000, func() {
		if _, err := read(r); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadCommandBorrowZeroAlloc pins the borrowing parse at zero heap
// allocations per command once the arena and spine are warm.
func TestReadCommandBorrowZeroAlloc(t *testing.T) {
	if avg := parseAllocs(t, (*Reader).ReadCommandBorrow); avg != 0 {
		t.Fatalf("ReadCommandBorrow allocates %v allocs/op, want 0", avg)
	}
}

// TestReadCommandAllocs pins the copying parse at one allocation per
// command: every argument shares one owned buffer.
func TestReadCommandAllocs(t *testing.T) {
	if avg := parseAllocs(t, (*Reader).ReadCommand); avg != 1 {
		t.Fatalf("ReadCommand allocates %v allocs/op, want 1", avg)
	}
}
