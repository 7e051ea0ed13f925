package resp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// loopReader serves frame over and over, one copy per Read at most, the
// way a socket hands a pipelined client's bursts to the parser.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

func frameOf(args ...string) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteCommandString(args...)
	w.Flush()
	return buf.Bytes()
}

// TestReadCommandArgsSurviveLaterReads pins ReadCommand's "safe to
// retain" contract now that both entry points share the parser's arena:
// arguments kept from earlier commands, small and large, multibulk and
// inline, must be unchanged after many later reads.
func TestReadCommandArgsSurviveLaterReads(t *testing.T) {
	big := strings.Repeat("B", maxArenaKeep+1)
	var in bytes.Buffer
	want := [][]string{}
	for i := 0; i < 50; i++ {
		cmd := []string{"SET", fmt.Sprintf("key:%d", i), strings.Repeat(string(rune('a'+i%26)), i)}
		if i == 7 {
			cmd[2] = big
		}
		in.Write(frameOf(cmd...))
		want = append(want, cmd)
		in.WriteString(fmt.Sprintf("PING inline-%d\r\n", i))
		want = append(want, []string{"PING", fmt.Sprintf("inline-%d", i)})
	}
	r := NewReader(&in)
	var kept [][][]byte
	for range want {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, append([][]byte(nil), args...)) // the spine is reused; the elements are ours
	}
	for i, args := range kept {
		if len(args) != len(want[i]) {
			t.Fatalf("command %d: %d args, want %d", i, len(args), len(want[i]))
		}
		for j, a := range args {
			if string(a) != want[i][j] {
				t.Fatalf("command %d arg %d changed after later reads: %.20q, want %.20q", i, j, a, want[i][j])
			}
		}
	}
}

// TestArenaDroppedAfterLargeCommand pins the arena cap: a command whose
// payload grew the arena past maxArenaKeep is served from it, and the
// next read lets it go instead of pinning it for the connection's life.
func TestArenaDroppedAfterLargeCommand(t *testing.T) {
	big := strings.Repeat("x", 1<<20)
	in := bytes.NewBuffer(append(frameOf("SET", "k", big), frameOf("GET", "k")...))
	r := NewReader(in)
	args, err := r.ReadCommandBorrow()
	if err != nil || len(args) != 3 || string(args[2]) != big {
		t.Fatalf("large SET: %d args, err %v", len(args), err)
	}
	if _, err := r.ReadCommandBorrow(); err != nil {
		t.Fatal(err)
	}
	if c := cap(r.arena); c > maxArenaKeep {
		t.Fatalf("arena of %d bytes kept after the large command, cap is %d", c, maxArenaKeep)
	}
}
