package core

import (
	"fmt"
	"sync"
)

// Stage enumerates ScratchPipe's six pipeline stages (Figure 10).
type Stage int

const (
	// StageLoad reads the next mini-batch (and its look-ahead window)
	// from the training dataset.
	StageLoad Stage = iota
	// StagePlan queries the Hit-Map, schedules fills/evictions, and
	// installs hold protection (the paper's control unit).
	StagePlan
	// StageCollect gathers missed rows from the CPU tables and victim
	// rows from the GPU scratchpad into staging buffers.
	StageCollect
	// StageExchange ships the staged rows across PCIe in both
	// directions simultaneously.
	StageExchange
	// StageInsert fills missed rows into the scratchpad and writes
	// evicted rows back into the CPU tables.
	StageInsert
	// StageTrain runs embedding forward, MLP forward/backward, and the
	// embedding parameter update entirely against the GPU scratchpad.
	StageTrain
	// NumStages is the pipeline depth.
	NumStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageLoad:
		return "Load"
	case StagePlan:
		return "Plan"
	case StageCollect:
		return "Collect"
	case StageExchange:
		return "Exchange"
	case StageInsert:
		return "Insert"
	case StageTrain:
		return "Train"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// Stages lists all stages in pipeline order.
var Stages = []Stage{StageLoad, StagePlan, StageCollect, StageExchange, StageInsert, StageTrain}

// Job is the per-mini-batch state an engine threads through the pipeline.
type Job interface {
	// Seq returns the batch sequence number (for diagnostics).
	Seq() int
}

// StageFunc executes one stage of one job during one pipeline cycle.
type StageFunc func(cycle int, job Job) error

// Pipeline drives jobs through the six stages. Each RunCycle advances
// every in-flight job by one stage; with Parallel set, the six stage
// executions of a cycle run in separate goroutines — the configuration
// under which any violation of the hold-mask discipline becomes a data
// race that `go test -race` will catch.
type Pipeline struct {
	stages   [NumStages]StageFunc
	inFlight [NumStages]Job // inFlight[s] is the job executing stage s next cycle
	lastExec [NumStages]Job // stage occupancy during the most recent cycle
	cycle    int
	parallel bool
}

// NewPipeline builds a pipeline with one function per stage; nil stage
// functions are treated as no-ops.
func NewPipeline(stages [NumStages]StageFunc, parallel bool) *Pipeline {
	return &Pipeline{stages: stages, parallel: parallel}
}

// Cycle returns the number of completed cycles.
func (p *Pipeline) Cycle() int { return p.cycle }

// LastExecuted returns the stage occupancy of the most recent cycle:
// element s is the job whose stage s ran (nil if the slot was empty). The
// engine uses it to compute the cycle's critical-path latency.
func (p *Pipeline) LastExecuted() [NumStages]Job { return p.lastExec }

// AtStage returns the job that will execute stage s next cycle, or nil.
func (p *Pipeline) AtStage(s Stage) Job { return p.inFlight[s] }

// InFlight returns the number of jobs currently inside the pipeline.
func (p *Pipeline) InFlight() int {
	n := 0
	for _, j := range p.inFlight {
		if j != nil {
			n++
		}
	}
	return n
}

// RunCycle injects newJob into the Load stage (nil to drain) and executes
// one pipeline cycle. It returns the job that completed Train this cycle
// (nil while the pipeline is filling) and the first stage error, if any.
func (p *Pipeline) RunCycle(newJob Job) (completed Job, err error) {
	// Advance: the job that finished stage s last cycle enters s+1. The
	// Train position was cleared when its job completed, so nothing
	// falls off the end.
	for s := NumStages - 1; s >= 1; s-- {
		p.inFlight[s] = p.inFlight[s-1]
	}
	p.inFlight[0] = newJob
	p.lastExec = p.inFlight

	if p.parallel {
		var wg sync.WaitGroup
		errs := make([]error, NumStages)
		for s := 0; s < int(NumStages); s++ {
			job := p.inFlight[s]
			if job == nil || p.stages[s] == nil {
				continue
			}
			wg.Add(1)
			go func(s int, job Job) {
				defer wg.Done()
				errs[s] = p.stages[s](p.cycle, job)
			}(s, job)
		}
		wg.Wait()
		for s, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("core: pipeline cycle %d stage %s: %w", p.cycle, Stage(s), e)
			}
		}
	} else {
		for s := 0; s < int(NumStages); s++ {
			job := p.inFlight[s]
			if job == nil || p.stages[s] == nil {
				continue
			}
			if e := p.stages[s](p.cycle, job); e != nil {
				return nil, fmt.Errorf("core: pipeline cycle %d stage %s: %w", p.cycle, Stage(s), e)
			}
		}
	}
	p.cycle++
	completed = p.inFlight[NumStages-1]
	p.inFlight[NumStages-1] = nil
	return completed, nil
}

// Drain runs cycles with no new jobs until the pipeline empties, invoking
// onComplete for each job that finishes Train.
func (p *Pipeline) Drain(onComplete func(Job) error) error {
	for p.InFlight() > 0 {
		done, err := p.RunCycle(nil)
		if err != nil {
			return err
		}
		if done != nil && onComplete != nil {
			if err := onComplete(done); err != nil {
				return err
			}
		}
	}
	return nil
}
