package cache

import (
	"math/rand"
	"testing"

	"repro/internal/embed"
)

func TestStaticMetadataMode(t *testing.T) {
	s, err := NewStatic(nil, 1000, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := classify(s, 0, 99, 100, 500)
	if hits != 2 || misses != 2 {
		t.Fatalf("hits %d misses %d", hits, misses)
	}
	s.RecordQuery(hits, misses)
	s.RecordQuery(classify(s, 1))
	if st := s.Stats(); st != (StaticStats{Queries: 5, Hits: 3, Misses: 2}) {
		t.Fatalf("stats %+v", st)
	}
}

// classify counts ids' hits and misses in s.
func classify(s *Static, ids ...int64) (hits, misses int) {
	for _, id := range ids {
		if s.Hit(id) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

func TestStaticBounds(t *testing.T) {
	if _, err := NewStatic(nil, 100, 8, 101); err == nil {
		t.Error("topN > rows accepted")
	}
	if _, err := NewStatic(nil, 100, 8, -1); err == nil {
		t.Error("negative topN accepted")
	}
}

func TestStaticFunctionalRouting(t *testing.T) {
	cpu, err := embed.NewTable(50, 4, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	orig0 := append([]float32(nil), cpu.Row(0)...)
	s, err := NewStatic(cpu, 50, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Hot row: updates land in the GPU copy, CPU copy stays stale.
	s.Row(0)[0] = 123
	if cpu.Row(0)[0] == 123 {
		t.Fatal("hot-row write reached CPU table before Flush")
	}
	// Cold row: direct CPU access.
	s.Row(20)[0] = 456
	if cpu.Row(20)[0] != 456 {
		t.Fatal("cold-row write did not reach CPU table")
	}
	// Flush publishes dirty hot rows.
	s.Flush()
	if cpu.Row(0)[0] != 123 {
		t.Fatal("Flush did not write back hot row")
	}
	_ = orig0
	if s.Dim() != 4 {
		t.Fatalf("Dim = %d", s.Dim())
	}
}

func TestStaticInitialCopyMatchesCPU(t *testing.T) {
	cpu, err := embed.NewTable(30, 4, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), cpu.Row(5)...)
	s, err := NewStatic(cpu, 30, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Row(5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("cached copy differs from CPU value")
		}
	}
}

func TestStaticZeroTopN(t *testing.T) {
	cpu, err := embed.NewTable(30, 4, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStatic(cpu, 30, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := classify(s, 0, 1, 2); hits != 0 || misses != 3 {
		t.Fatalf("hits %d misses %d", hits, misses)
	}
	s.Flush() // no-op, must not panic
	// All rows route to CPU.
	s.Row(0)[0] = 77
	if cpu.Row(0)[0] != 77 {
		t.Fatal("write did not reach CPU")
	}
}
