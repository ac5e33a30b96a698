package capindex

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// FuzzDirtySet drives a DirtySet with byte-decoded Mark/Drain sequences
// — re-marking drained names and marking never-seen ones included — and
// checks it against a map oracle: Len always equals the oracle's size,
// and every Drain returns exactly the marked set, sorted and unique.
func FuzzDirtySet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 8, 4, 0, 0, 4})         // dedup, drain, empty drain, re-mark
	f.Add([]byte{252, 8, 0, 252, 12, 8, 0}) // re-mark a drained name beside fresh ones
	for i := 0; i < 64; i++ {
		f.Add([]byte{byte(i), byte(i * 7), byte(i * 13), 0, byte(i * 29), 0})
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewDirtySet()
		oracle := map[string]bool{}
		for i, b := range ops {
			if b&3 == 0 {
				got := s.Drain()
				want := make([]string, 0, len(oracle))
				for n := range oracle {
					want = append(want, n)
				}
				sort.Strings(want)
				if len(want) == 0 {
					if got != nil {
						t.Fatalf("op %d: drain of empty set = %v, want nil", i, got)
					}
				} else if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("op %d: drain = %v, want %v", i, got, want)
				}
				clear(oracle)
			} else {
				n := fmt.Sprintf("srv-%02d", b>>2)
				s.Mark(n)
				oracle[n] = true
			}
			if s.Len() != len(oracle) {
				t.Fatalf("op %d: Len = %d, want %d", i, s.Len(), len(oracle))
			}
		}
	})
}

// BenchmarkDirtySetDrain is the steady-state dirty sync of a wide fleet:
// 4096 servers registered (marked once and drained), then one dirty
// server per drain. The drain must cost O(dirty) — nothing proportional
// to the fleet — and allocate nothing.
func BenchmarkDirtySetDrain(b *testing.B) {
	const servers = 4096
	names := make([]string, servers)
	s := NewDirtySet()
	for i := range names {
		names[i] = fmt.Sprintf("srv-%05d", i)
		s.Mark(names[i])
	}
	s.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Mark(names[i%servers])
		if len(s.Drain()) != 1 {
			b.Fatal("drain should return the one marked server")
		}
	}
}

// TestDirtySetConcurrentMarks marks overlapping name sets from several
// goroutines, as host callbacks do during parallel reinflation. Run
// with -race; the drain must return the union exactly once.
func TestDirtySetConcurrentMarks(t *testing.T) {
	s := NewDirtySet()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Mark(fmt.Sprintf("srv-%03d", (i*(w+1))%100))
			}
		}(w)
	}
	wg.Wait()
	got := s.Drain()
	if len(got) != 100 || !sort.StringsAreSorted(got) || got[0] != "srv-000" || got[99] != "srv-099" {
		t.Fatalf("drain after concurrent marks = %d names, want srv-000..srv-099 sorted", len(got))
	}
}
