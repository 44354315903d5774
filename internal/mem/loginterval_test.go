package mem

import (
	"math/rand"
	"testing"
)

// TestLocalNewIntervalMatchesNaiveClear cross-checks the masked whole-uint64
// log-bit clear in the local NewInterval path against a per-word reference on
// randomized write patterns, including memory sizes that are not multiples of
// the line or the 64-bit chunk.
func TestLocalNewIntervalMatchesNaiveClear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		words := 600 + rng.Intn(97) // deliberately ragged tail
		s, _ := newTestSystem(4, words)
		for i := 0; i < 400; i++ {
			s.Store(rng.Intn(4), int64(rng.Intn(words)), int64(i))
		}
		groupMask := 1 + rng.Intn(15)
		group := NewCoreSet(4)
		for c := 0; c < 4; c++ {
			if groupMask&(1<<uint(c)) != 0 {
				group.Add(c)
			}
		}

		logBit := func(a int64) bool { return testLogBit(s, a) }

		// Reference: clear one bit at a time for every word of every line
		// last written by a group member.
		want := make([]bool, words)
		for a := 0; a < words; a++ {
			want[a] = logBit(int64(a))
		}
		lw := int64(s.cfg.LineWords)
		nLines := (int64(words) + lw - 1) / lw
		for line := int64(0); line < nLines; line++ {
			writer := testLastWriter(s, line)
			if writer == 0 || !group.Has(int(writer-1)) {
				continue
			}
			for a := line * lw; a < (line+1)*lw && a < int64(words); a++ {
				want[a] = false
			}
		}

		s.NewInterval(group, false)
		for a := 0; a < words; a++ {
			if logBit(int64(a)) != want[a] {
				t.Fatalf("trial %d (words=%d, group=%v): log bit of word %d = %v, want %v",
					trial, words, group, a, logBit(int64(a)), want[a])
			}
		}
	}
}

// testLogBit reads word a's log bit through the page table.
func testLogBit(s *System, a int64) bool {
	p := s.pages[a>>pageShift]
	i := a & pageMask
	return p != nil && p.logBits[i>>6]&(1<<uint(i&63)) != 0
}

// testLastWriter reads line's last-writer tag (core id + 1, 0 if never
// written) through the page table.
func testLastWriter(s *System, line int64) int32 {
	p := s.pages[(line<<s.lineShift)>>pageShift]
	if p == nil {
		return 0
	}
	return p.tags[line&s.lineMask].writer
}
