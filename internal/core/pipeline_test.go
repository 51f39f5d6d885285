package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

type testJob struct {
	seq    int
	trace  []string // stages executed, in order
	mu     sync.Mutex
	shared *[]string
	smu    *sync.Mutex
}

func (j *testJob) Seq() int { return j.seq }

func recordingStages(t *testing.T) ([NumStages]StageFunc, *[]string, *sync.Mutex) {
	var log []string
	var mu sync.Mutex
	var stages [NumStages]StageFunc
	for s := StageLoad; s < NumStages; s++ {
		s := s
		stages[s] = func(cycle int, job Job) error {
			tj := job.(*testJob)
			tj.mu.Lock()
			tj.trace = append(tj.trace, s.String())
			tj.mu.Unlock()
			mu.Lock()
			log = append(log, fmt.Sprintf("c%d:%s:j%d", cycle, s, tj.seq))
			mu.Unlock()
			return nil
		}
	}
	return stages, &log, &mu
}

func TestPipelineJobTraversal(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		stages, _, _ := recordingStages(t)
		p := NewPipeline(stages, parallel)
		var completed []int
		jobs := make([]*testJob, 8)
		for i := range jobs {
			jobs[i] = &testJob{seq: i}
		}
		for i := 0; i < len(jobs); i++ {
			done, err := p.RunCycle(jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			if done != nil {
				completed = append(completed, done.(*testJob).seq)
			}
		}
		if err := p.Drain(func(j Job) error {
			completed = append(completed, j.(*testJob).seq)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(completed) != 8 {
			t.Fatalf("parallel=%v: %d jobs completed", parallel, len(completed))
		}
		for i, seq := range completed {
			if seq != i {
				t.Fatalf("parallel=%v: completion order %v", parallel, completed)
			}
		}
		// Every job visited all six stages in order.
		for _, j := range jobs {
			if len(j.trace) != int(NumStages) {
				t.Fatalf("job %d executed %v", j.seq, j.trace)
			}
			for s, name := range j.trace {
				if name != Stage(s).String() {
					t.Fatalf("job %d stage order %v", j.seq, j.trace)
				}
			}
		}
		if p.InFlight() != 0 {
			t.Fatalf("pipeline not empty after drain: %d", p.InFlight())
		}
	}
}

func TestPipelineConcurrencyShape(t *testing.T) {
	stages, log, mu := recordingStages(t)
	p := NewPipeline(stages, false)
	for i := 0; i < 10; i++ {
		if _, err := p.RunCycle(&testJob{seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// At cycle 5 (0-based), all six stages must have executed: jobs 5..0.
	var atCycle5 int
	for _, e := range *log {
		if strings.HasPrefix(e, "c5:") {
			atCycle5++
		}
	}
	if atCycle5 != int(NumStages) {
		t.Fatalf("cycle 5 executed %d stages, want %d", atCycle5, NumStages)
	}
}

func TestPipelineStageError(t *testing.T) {
	var stages [NumStages]StageFunc
	stages[StageCollect] = func(cycle int, job Job) error {
		return fmt.Errorf("boom")
	}
	p := NewPipeline(stages, false)
	if _, err := p.RunCycle(&testJob{seq: 0}); err != nil {
		t.Fatalf("cycle 0: %v", err)
	}
	if _, err := p.RunCycle(nil); err != nil {
		t.Fatalf("cycle 1: %v", err)
	}
	// Cycle 2: job reaches Collect.
	if _, err := p.RunCycle(nil); err == nil {
		t.Fatal("stage error not propagated")
	}
}

func TestPipelineNilStagesAreNoOps(t *testing.T) {
	var stages [NumStages]StageFunc
	p := NewPipeline(stages, false)
	done, err := p.RunCycle(&testJob{seq: 0})
	if err != nil || done != nil {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if err := p.Drain(nil); err != nil {
		t.Fatal(err)
	}
	if p.Cycle() != int(NumStages) {
		t.Fatalf("cycles = %d", p.Cycle())
	}
}

func TestPipelineCycleHookAndAccessors(t *testing.T) {
	stages, _, _ := recordingStages(t)
	p := NewPipeline(stages, false)
	j0 := &testJob{seq: 0}
	if _, err := p.RunCycle(j0); err != nil {
		t.Fatal(err)
	}
	if p.AtStage(StageLoad) != Job(j0) {
		t.Fatal("AtStage(Load) mismatch")
	}
	exec := p.LastExecuted()
	if exec[StageLoad] != Job(j0) {
		t.Fatal("LastExecuted mismatch")
	}
	if p.InFlight() != 1 {
		t.Fatalf("in flight %d", p.InFlight())
	}
}

func TestStageString(t *testing.T) {
	want := []string{"Load", "Plan", "Collect", "Exchange", "Insert", "Train"}
	for i, s := range Stages {
		if s.String() != want[i] {
			t.Errorf("stage %d = %s", i, s)
		}
	}
	if Stage(99).String() == "" {
		t.Error("unknown stage string empty")
	}
}
