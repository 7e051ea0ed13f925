// Package resp implements the server and client halves of the RESP
// (REdis Serialization Protocol) wire format cpacached speaks: a Reader
// that parses incoming commands (multibulk arrays and inline lines), a
// Writer that renders replies, and a client-side reply parser used by
// the cpaload driver and the integration tests.
//
// The command parser is written for a network-facing server, so it is
// defensive in two ways the textbook grammar is not:
//
//   - Hard size limits (Limits) bound every allocation a frame can
//     cause. A frame that declares a bulk or array larger than the
//     limit is consumed from the stream in constant memory (the payload
//     is discarded, never buffered) and reported as a *ProtoError, so
//     the connection stays usable — one bad frame costs one error
//     reply, not the session.
//
//   - Malformed input resynchronizes at the next line boundary instead
//     of wedging the stream: a bad length digit, a missing '$' header
//     or a broken CRLF discards through the next '\n' and surfaces a
//     *ProtoError the server answers with "-ERR ...". Only genuine I/O
//     errors (EOF, timeouts) terminate the read loop.
package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Limits bounds the memory one command frame can make the parser
// allocate. The zero value means DefaultLimits.
type Limits struct {
	// MaxArrayLen caps the element count of a multibulk command.
	MaxArrayLen int
	// MaxBulkLen caps the byte length of one bulk string (so one key or
	// one value).
	MaxBulkLen int
	// MaxInlineLen caps the length of an inline command line.
	MaxInlineLen int
}

// DefaultLimits are generous for a cache workload (1024-element
// pipelines of 64 MiB values fit) while keeping a hostile frame from
// ballooning memory.
var DefaultLimits = Limits{
	MaxArrayLen:  1024,
	MaxBulkLen:   64 << 20,
	MaxInlineLen: 64 << 10,
}

// ProtoError is a protocol-level parse error: the offending frame was
// consumed (the stream is resynchronized) and the connection may
// continue after reporting it. It is distinct from I/O errors, which
// terminate the connection.
type ProtoError struct{ msg string }

func (e *ProtoError) Error() string { return e.msg }

func protoErrf(format string, args ...any) *ProtoError {
	return &ProtoError{msg: fmt.Sprintf(format, args...)}
}

// IsProtocol reports whether err is a recoverable protocol error (the
// connection can keep serving after replying with it).
func IsProtocol(err error) bool {
	var pe *ProtoError
	return errors.As(err, &pe)
}

// Reader parses RESP command frames from a stream.
type Reader struct {
	br  *bufio.Reader
	lim Limits
	// args is the reusable [][]byte spine of the current command. Its
	// elements point into arena, the per-Reader scratch that every
	// command's payloads are copied into; ReadCommandBorrow hands them
	// out as they are, ReadCommand copies them out first.
	args  [][]byte
	arena []byte
}

// maxArenaKeep caps the arena a Reader keeps between commands. A command
// whose payloads grew it past this is still parsed into it, but the next
// read drops it, so one large value does not stay pinned by an idle
// connection.
const maxArenaKeep = 64 << 10

// NewReader wraps r with DefaultLimits.
func NewReader(r io.Reader) *Reader { return NewReaderLimits(r, DefaultLimits) }

// NewReaderLimits wraps r with explicit limits; zero fields fall back
// to DefaultLimits.
func NewReaderLimits(r io.Reader, lim Limits) *Reader {
	if lim.MaxArrayLen <= 0 {
		lim.MaxArrayLen = DefaultLimits.MaxArrayLen
	}
	if lim.MaxBulkLen <= 0 {
		lim.MaxBulkLen = DefaultLimits.MaxBulkLen
	}
	if lim.MaxInlineLen <= 0 {
		lim.MaxInlineLen = DefaultLimits.MaxInlineLen
	}
	return &Reader{br: bufio.NewReader(r), lim: lim}
}

// Buffered reports the bytes already read from the connection but not
// yet parsed — the server flushes its reply buffer only when this
// reaches zero, which is what makes pipelining pay.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadCommand reads the next command as a slice of arguments. Empty
// inline lines are skipped. The argument slices are safe to retain:
// they share one fresh allocation per command. The outer slice is reused
// by the next call.
//
// A *ProtoError return means the frame was malformed but consumed: the
// caller should report it to the client and keep reading. Any other
// error is terminal for the connection.
func (r *Reader) ReadCommand() ([][]byte, error) {
	args, err := r.ReadCommandBorrow()
	if err != nil {
		return nil, err
	}
	n := 0
	for _, a := range args {
		n += len(a)
	}
	own := make([]byte, 0, n)
	for i, a := range args {
		start := len(own)
		own = append(own, a...)
		args[i] = own[start:len(own):len(own)]
	}
	return args, nil
}

// ReadCommandBorrow is ReadCommand without the copy: the arguments point
// into the Reader's scratch arena and stay valid only until the next
// ReadCommand or ReadCommandBorrow call. The caller may modify
// them in place (the server uppercases command words), but must copy
// whatever it keeps beyond that. Both entry points run the same parser,
// so they return the same arguments and the same errors.
func (r *Reader) ReadCommandBorrow() ([][]byte, error) {
	if cap(r.arena) > maxArenaKeep {
		r.arena = nil
	}
	for {
		r.arena = r.arena[:0]
		b, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if b == '*' {
			args, err := r.readMultibulk()
			if err == nil && args == nil {
				continue // "*0": an empty command frame, skipped
			}
			return args, err
		}
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		args, err := r.readInline()
		if err != nil {
			return nil, err
		}
		if len(args) == 0 {
			continue // bare CRLF keepalive: skip, as redis does
		}
		return args, nil
	}
}

// alloc returns n bytes of arena for one argument. When the arena is
// full it is replaced, not grown: arguments already handed out keep
// pointing into the old array, which nothing writes again.
func (r *Reader) alloc(n int) []byte {
	if cap(r.arena)-len(r.arena) < n {
		r.arena = make([]byte, 0, max(2*cap(r.arena), n, 512))
	}
	start := len(r.arena)
	r.arena = r.arena[:start+n]
	return r.arena[start : start+n : start+n]
}

// readLine reads through the next '\n', returning the line without its
// terminator. Lines longer than MaxInlineLen are discarded in constant
// memory and reported as a protocol error.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == nil {
		return trimCRLF(line), nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	// The line overflows bufio's buffer: keep draining to the newline
	// without accumulating it, then report.
	n := len(line)
	for {
		line, err = r.br.ReadSlice('\n')
		n += len(line)
		if err == nil {
			return nil, protoErrf("ERR Protocol error: line too long (%d+ bytes)", n)
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

func trimCRLF(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// readInline parses a space-separated inline command line.
func (r *Reader) readInline() ([][]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) > r.lim.MaxInlineLen {
		return nil, protoErrf("ERR Protocol error: inline command of %d bytes exceeds limit %d", len(line), r.lim.MaxInlineLen)
	}
	args := r.args[:0]
	for i := 0; i < len(line); {
		if line[i] == ' ' || line[i] == '\t' {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		arg := r.alloc(j - i)
		copy(arg, line[i:j])
		args = append(args, arg)
		i = j
	}
	r.args = args
	return args, nil
}

// parseLen parses a decimal length from a header line body.
func parseLen(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 10 {
		return 0, false
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// readMultibulk parses the elements of an array command whose '*' has
// already been consumed. Oversized declared sizes are drained, not
// buffered; the elements of a too-long array are still parsed (each one
// bounded) so the stream lands on the next frame boundary.
func (r *Reader) readMultibulk() ([][]byte, error) {
	header, err := r.readLine()
	if err != nil {
		return nil, err
	}
	n, ok := parseLen(header)
	if !ok {
		return nil, protoErrf("ERR Protocol error: invalid multibulk length")
	}
	if n < 0 {
		return nil, protoErrf("ERR Protocol error: invalid multibulk length")
	}
	if n == 0 {
		// No elements: the caller's loop skips to the next frame.
		return nil, nil
	}
	overLen := n > r.lim.MaxArrayLen
	args := r.args[:0]
	for i := 0; i < n; i++ {
		elem, err := r.readBulkElem()
		if err != nil {
			r.args = args
			return nil, err
		}
		if !overLen {
			args = append(args, elem)
		}
	}
	r.args = args
	if overLen {
		return nil, protoErrf("ERR Protocol error: multibulk length %d exceeds limit %d", n, r.lim.MaxArrayLen)
	}
	return args, nil
}

// readBulkElem parses one "$<len>\r\n<payload>\r\n" element. Payloads
// above MaxBulkLen are discarded in constant memory and reported.
func (r *Reader) readBulkElem() ([]byte, error) {
	header, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(header) == 0 || header[0] != '$' {
		return nil, protoErrf("ERR Protocol error: expected '$', got %q", headByte(header))
	}
	n, ok := parseLen(header[1:])
	if !ok || n < 0 {
		return nil, protoErrf("ERR Protocol error: invalid bulk length")
	}
	if n > r.lim.MaxBulkLen {
		if err := r.discard(n + 2); err != nil {
			return nil, err
		}
		return nil, protoErrf("ERR Protocol error: bulk length %d exceeds limit %d", n, r.lim.MaxBulkLen)
	}
	payload := r.alloc(n)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return nil, err
	}
	crlf, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if crlf == '\r' {
		if crlf, err = r.br.ReadByte(); err != nil {
			return nil, err
		}
	}
	if crlf != '\n' {
		// The payload did not end where its header promised: discard
		// through the next newline so the stream realigns on a frame
		// boundary, then report.
		if _, err := r.br.ReadSlice('\n'); err != nil && err != bufio.ErrBufferFull {
			return nil, err
		}
		return nil, protoErrf("ERR Protocol error: bulk string missing CRLF terminator")
	}
	return payload, nil
}

func headByte(b []byte) byte {
	if len(b) == 0 {
		return '\n'
	}
	return b[0]
}

// discard drains exactly n bytes from the stream without buffering them.
func (r *Reader) discard(n int) error {
	for n > 0 {
		k, err := r.br.Discard(min(n, 1<<20))
		n -= k
		if err != nil {
			return err
		}
	}
	return nil
}

// Writer renders RESP replies into a buffered stream. Methods never
// return errors; the first write failure is latched and surfaced by
// Flush, which is how a pipelined server wants it — render the whole
// batch, check once.
type Writer struct {
	bw  *bufio.Writer
	num [24]byte // scratch for integer rendering
}

// NewWriter wraps w with bufio's default 4 KiB buffer.
func NewWriter(w io.Writer) *Writer { return NewWriterSize(w, 0) }

// NewWriterSize wraps w with a size-byte buffer (bufio's default when
// size <= 0): replies reach w only when the buffer fills or on Flush.
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, size)}
}

// Flush writes out everything buffered and returns the first error the
// underlying stream reported.
func (w *Writer) Flush() error { return w.bw.Flush() }

// SimpleString writes "+s\r\n".
func (w *Writer) SimpleString(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// Error writes "-msg\r\n". The message must already carry its ERR/
// WRONGTYPE-style prefix.
func (w *Writer) Error(msg string) {
	w.bw.WriteByte('-')
	w.bw.WriteString(msg)
	w.bw.WriteString("\r\n")
}

// Int writes ":n\r\n".
func (w *Writer) Int(n int64) {
	w.bw.WriteByte(':')
	w.bw.Write(strconv.AppendInt(w.num[:0], n, 10))
	w.bw.WriteString("\r\n")
}

// Bulk writes "$len\r\nb\r\n".
func (w *Writer) Bulk(b []byte) {
	w.bw.WriteByte('$')
	w.bw.Write(strconv.AppendInt(w.num[:0], int64(len(b)), 10))
	w.bw.WriteString("\r\n")
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// BulkString writes s as a bulk string.
func (w *Writer) BulkString(s string) {
	w.bw.WriteByte('$')
	w.bw.Write(strconv.AppendInt(w.num[:0], int64(len(s)), 10))
	w.bw.WriteString("\r\n")
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// Null writes the null bulk reply "$-1\r\n" (a GET miss).
func (w *Writer) Null() { w.bw.WriteString("$-1\r\n") }

// ArrayHeader writes "*n\r\n"; the caller then writes n elements.
func (w *Writer) ArrayHeader(n int) {
	w.bw.WriteByte('*')
	w.bw.Write(strconv.AppendInt(w.num[:0], int64(n), 10))
	w.bw.WriteString("\r\n")
}
