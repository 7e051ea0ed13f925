package resp

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzRESPParse throws arbitrary bytes at the command parser and checks
// its contract: no panics, no unbounded allocation (every returned
// argument respects the limits), protocol errors always leave the
// stream either re-synchronized or terminally failed, and the loop
// always terminates. The borrowing entry point reads the same bytes in
// lockstep and must return the same arguments and the same errors.
// Valid frames written by the Writer must round-trip exactly.
func FuzzRESPParse(f *testing.F) {
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n"))
	f.Add([]byte("PING\r\nPING\r\n"))
	f.Add([]byte("*1\r\n$-1\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("*999999\r\n"))
	f.Add([]byte("$5\r\nab"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1000000\r\nx\r\n"))
	f.Add([]byte(strings.Repeat("z", 9000) + "\r\nPING\r\n"))
	f.Add([]byte("\r\n\r\n*0\r\nINFO\r\n"))

	lim := Limits{MaxArrayLen: 8, MaxBulkLen: 256, MaxInlineLen: 128}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReaderLimits(bytes.NewReader(data), lim)
		rb := NewReaderLimits(bytes.NewReader(data), lim)
		for i := 0; i < len(data)+4; i++ {
			args, err := r.ReadCommand()
			borrowed, berr := rb.ReadCommandBorrow()
			if (err == nil) != (berr == nil) || err != nil && (err.Error() != berr.Error() || IsProtocol(err) != IsProtocol(berr)) {
				t.Fatalf("read %d: ReadCommand error %v, ReadCommandBorrow error %v", i, err, berr)
			}
			if len(args) != len(borrowed) {
				t.Fatalf("read %d: ReadCommand %q, ReadCommandBorrow %q", i, args, borrowed)
			}
			for j := range args {
				if !bytes.Equal(args[j], borrowed[j]) {
					t.Fatalf("read %d: ReadCommand %q, ReadCommandBorrow %q", i, args, borrowed)
				}
			}
			if err != nil {
				if IsProtocol(err) {
					continue // recoverable: the parser resynchronized
				}
				return // I/O-terminal (EOF, truncation): loop over
			}
			if len(args) == 0 {
				t.Fatalf("ReadCommand returned an empty command without error")
			}
			if len(args) > lim.MaxArrayLen {
				t.Fatalf("command of %d args exceeds MaxArrayLen %d", len(args), lim.MaxArrayLen)
			}
			for _, a := range args {
				if len(a) > max(lim.MaxBulkLen, lim.MaxInlineLen) {
					t.Fatalf("argument of %d bytes exceeds limits", len(a))
				}
			}
		}
		// A finite input must drain in a bounded number of reads: every
		// iteration either consumes at least one byte or errors out.
		if _, err := r.ReadCommand(); err == nil {
			t.Fatalf("parser did not terminate on %d-byte input", len(data))
		}
	})
}

// FuzzRESPRoundTrip encodes the fuzz input as one bulk argument of a
// command and checks the Writer→Reader round trip preserves it exactly.
func FuzzRESPRoundTrip(f *testing.F) {
	f.Add([]byte("value"))
	f.Add([]byte{})
	f.Add([]byte{0, '\r', '\n', 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.WriteCommand([]byte("SET"), []byte("k"), payload)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(args) != 3 || string(args[0]) != "SET" || !bytes.Equal(args[2], payload) {
			t.Fatalf("round trip mangled %q into %q", payload, args)
		}
		if _, err := r.ReadCommand(); err != io.EOF {
			t.Fatalf("trailing bytes after round trip: %v", err)
		}
	})
}
