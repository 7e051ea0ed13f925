package main

import (
	"math"
	"testing"
	"time"
)

func TestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}, {0.0001, 1}} {
		if got := rank(xs, c.q); got != c.want {
			t.Errorf("rank(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(rank(nil, 0.5)) {
		t.Error("rank of no samples is not NaN")
	}
}

func TestValueCodec(t *testing.T) {
	key := appendKey(nil, "h:", 1234)
	if string(key) != "h:00001234" {
		t.Fatalf("key = %q", key)
	}
	for _, size := range []int{64, 128, 256, 1024} {
		v := appendValue(nil, key, 0xabc01, size)
		if len(v) != size {
			t.Fatalf("value of %d bytes, want %d", len(v), size)
		}
		if ver, ok := checkValue(key, v, size); !ok || ver != 0xabc01 {
			t.Fatalf("size %d: check = %#x, %v", size, ver, ok)
		}
		for i := range v {
			bad := append([]byte(nil), v...)
			bad[i] ^= 0x20
			if _, ok := checkValue(key, bad, size); ok {
				t.Fatalf("size %d: flipping byte %d went unnoticed", size, i)
			}
		}
		if _, ok := checkValue(appendKey(nil, "h:", 1235), v, size); ok {
			t.Fatalf("size %d: a value for another key passed", size)
		}
	}
}

func TestVerifierCatchesWrongValues(t *testing.T) {
	if err := verifierSelfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterminism(t *testing.T) {
	for name, sh := range kvShapes {
		for _, seed := range []uint64{1, 2, 12345} {
			if _, err := determinismSelfTest(sh, seed); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestSingleWriterKeys(t *testing.T) {
	sh := kvShapes["kv-hot"]
	for c, g := range newGens(sh, 7) {
		for i := 0; i < 20000; i++ {
			r := g.next()
			if r.key < 0 || r.key >= g.t.keys {
				t.Fatalf("conn %d: key %d out of range", c, r.key)
			}
			if r.set && r.key%g.writers != g.writer {
				t.Fatalf("conn %d (writer %d of %d) SET key %d", c, g.writer, g.writers, r.key)
			}
		}
	}
}

func TestRoundLatencyKeepsRecurringStalls(t *testing.T) {
	// Ten rounds of 100 GETs and 100 SETs at 50 us. In `stalled` of them
	// two requests of each operation stall for 5 ms, which reaches that
	// round's p99. A stall in nine rounds of ten is the daemon's and
	// stays in the best tenth; one in two rounds of ten is dropped.
	clean, stall := float64(50*time.Microsecond), float64(5*time.Millisecond)
	for _, c := range []struct {
		stalled int
		want99  float64
	}{{9, stall}, {2, clean}} {
		var rounds [][]sample
		for r := 0; r < 10; r++ {
			var rd []sample
			for i := 0; i < 200; i++ {
				s := sample{lat: 50 * time.Microsecond, set: i%2 == 0}
				if r < c.stalled && i < 4 {
					s.lat = 5 * time.Millisecond
				}
				rd = append(rd, s)
			}
			rounds = append(rounds, rd)
		}
		sum := roundLatency(rounds)
		if sum.gets != 100 || sum.sets != 100 {
			t.Fatalf("%v gets, %v sets per round; want 100, 100", sum.gets, sum.sets)
		}
		if sum.get99 != c.want99 || sum.set99 != c.want99 {
			t.Errorf("stalls in %d of 10 rounds: p99s %v %v, want %v", c.stalled, sum.get99, sum.set99, c.want99)
		}
		if sum.get50 != clean || sum.set50 != clean {
			t.Errorf("stalls in %d of 10 rounds: p50s %v %v, want %v", c.stalled, sum.get50, sum.set50, clean)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestBestTenth(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11, 12}
	if got := bestTenth(xs, true); got != 2 {
		t.Errorf("lower-better = %v, want 2", got)
	}
	if got := bestTenth(xs, false); got != 11 {
		t.Errorf("higher-better = %v, want 11", got)
	}
	if got := bestTenth([]float64{3, 1, 2}, true); got != 1 {
		t.Errorf("fewer than ten = %v, want the best, 1", got)
	}
	if !math.IsNaN(bestTenth(nil, true)) {
		t.Error("best tenth of nothing is not NaN")
	}
}

func TestDiffCSV(t *testing.T) {
	want := "h\na\nb\n"
	for _, c := range []struct {
		got  string
		diff int
	}{{"h\na\nb\n", 0}, {"h\na\nc\n", 1}, {"h\na\n", 1}, {"h\na\nb\nx\n", 1}, {"h\r\na\nb\n", 1}} {
		if rows, diff := diffCSV(c.got, want); rows != 2 || diff != c.diff {
			t.Errorf("diffCSV(%q) = %d rows, %d diffs; want 2, %d", c.got, rows, diff, c.diff)
		}
	}
}

func TestGoldenMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 49-simulation sweep")
	}
	sw, err := runSweep(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sw.diff != 0 || sw.sims != 49 {
		t.Fatalf("sweep: %d simulations, %d lines differ from golden/fig7.csv", sw.sims, sw.diff)
	}
}
