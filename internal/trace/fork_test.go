package trace

import (
	"reflect"
	"sync"
	"testing"
)

// freshStream returns the first n batches of a new generator for cfg,
// never recycled, as the reference a fork must replay.
func freshStream(t *testing.T, cfg GeneratorConfig, n int) []*Batch {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Batch, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// TestForkReplaysStream checks that every fork — taken before or after
// the parent has run, and forks of forks — replays the stream from
// batch 0 with batches deep-equal to a fresh generator's, and that
// interleaved forks (one recycling everything it reads) stay
// independent, in both functional and metadata-only mode.
func TestForkReplaysStream(t *testing.T) {
	for _, meta := range []bool{false, true} {
		cfg := testGenConfig()
		cfg.MetadataOnly = meta
		want := freshStream(t, cfg, 12)

		parent, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		early := parent.Fork()
		for i := 0; i < 5; i++ {
			parent.Recycle(parent.Next())
		}
		late := parent.Fork()
		grand := late.Fork()
		forks := []*Generator{early, late, grand}
		pos := make([]int, len(forks))
		// Uneven paces interleave the forks' reads of the recording.
		for step := 0; step < 3*len(want); step++ {
			i := step % len(forks)
			if step%5 == 0 {
				i = 0
			}
			if pos[i] == len(want) {
				continue
			}
			b := forks[i].Next()
			if !reflect.DeepEqual(b, want[pos[i]]) {
				t.Fatalf("metadata=%v: fork %d batch %d differs from a fresh generator's", meta, i, pos[i])
			}
			if i == 0 {
				forks[i].Recycle(b)
			}
			pos[i]++
		}
		// The parent's own stream is unaffected by its forks.
		if b := parent.Next(); !reflect.DeepEqual(b, want[5]) {
			t.Fatalf("metadata=%v: parent batch 5 differs after forking", meta)
		}
	}
}

// TestForkConcurrentReaders runs forks of one generator on separate
// goroutines (the race detector checks the shared recording).
func TestForkConcurrentReaders(t *testing.T) {
	cfg := testGenConfig()
	want := freshStream(t, cfg, 20)
	parent, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	forks := []*Generator{parent.Fork(), parent.Fork(), parent.Fork()}
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func(i int, f *Generator) {
			defer wg.Done()
			for k := range want {
				if b := f.Next(); !reflect.DeepEqual(b, want[k]) {
					t.Errorf("fork %d batch %d differs from a fresh generator's", i, k)
					return
				}
			}
		}(i, f)
	}
	wg.Wait()
}

// TestUnforkedGeneratorRecycles checks that a generator nobody forked
// keeps no recording and still hands recycled batches back out.
func TestUnforkedGeneratorRecycles(t *testing.T) {
	g, err := NewGenerator(testGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := g.Next()
	g.Recycle(b)
	if g.Next() != b {
		t.Fatal("a recycled batch was not reused")
	}
	if g.rec != nil {
		t.Fatal("an un-forked generator keeps a recording")
	}
}
