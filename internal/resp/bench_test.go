package resp

import (
	"strings"
	"testing"
)

// BenchmarkReadCommand parses a SET of a 128-byte value through both
// entry points: borrow (arguments in the Reader's arena) and copy (one
// owned allocation per command).
func BenchmarkReadCommand(b *testing.B) {
	frame := frameOf("SET", "key:0001", strings.Repeat("v", 128))
	for _, bc := range []struct {
		name string
		read func(*Reader) ([][]byte, error)
	}{{"borrow", (*Reader).ReadCommandBorrow}, {"copy", (*Reader).ReadCommand}} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewReader(&loopReader{frame: frame})
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.read(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
