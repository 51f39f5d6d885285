package engine

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// TestForkMatchesFreshEnv checks the Fork/Close contract in functional
// mode: engines run one after another on forks of one env — the dynamic
// ones resetting the managers earlier forks retired — report exactly
// what the same engine reports on a fresh NewEnv and end with bitwise
// identical model state, while the parent's own tables stay untouched.
func TestForkMatchesFreshEnv(t *testing.T) {
	const iters = 12
	builders := []struct {
		name  string
		build func(*Env) (Engine, error)
	}{
		{"strawman", func(e *Env) (Engine, error) { return NewStrawMan(e, 0.05, cache.LRU) }},
		{"scratchpipe-lru", func(e *Env) (Engine, error) { return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.05}) }},
		{"hybrid", func(e *Env) (Engine, error) { return NewHybrid(e), nil }},
		{"scratchpipe-lfu", func(e *Env) (Engine, error) {
			return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.10, Policy: cache.LFU})
		}},
		{"scratchpipe-lru-10pct", func(e *Env) (Engine, error) { return NewScratchPipe(e, ScratchPipeOptions{CacheFrac: 0.10}) }},
	}
	parent := newTestEnv(t, trace.High, 7)
	for _, b := range builders {
		child, err := parent.Fork()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := b.build(child)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		got := runAndFlush(t, eng, iters)

		fresh := newTestEnv(t, trace.High, 7)
		eng, err = b.build(fresh)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		want := runAndFlush(t, eng, iters)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: report on a fork\n%+v\ndiffers from a fresh env's\n%+v", b.name, got, want)
		}
		assertSameModelState(t, b.name, child, fresh)
		child.Close()
	}
	if len(parent.spares.list) == 0 {
		t.Fatal("closed forks retired no managers")
	}
	assertSameModelState(t, "parent", parent, newTestEnv(t, trace.High, 7))
}
