// Cost planner: given a locality class, simulate all five training-system
// design points at paper scale (metadata mode) and report iteration time,
// per-iteration energy, and the AWS cost of one million iterations —
// the Table I decision, generalized.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/scratchpipe"
)

func main() {
	classFlag := flag.String("class", "Medium", "locality class: Random|Low|Medium|High")
	cacheFrac := flag.Float64("cache", 0.02, "GPU cache fraction for cached engines")
	iters := flag.Int("iters", 12, "simulated iterations per engine")
	flag.Parse()

	class, err := scratchpipe.ParseClass(*classFlag)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Training-cost planner — paper-scale model (40 GB), class %s, cache %.0f%%\n\n",
		class, *cacheFrac*100)
	fmt.Printf("%-14s %14s %12s %16s %12s\n",
		"engine", "iter (ms)", "energy (J)", "$ / 1M iters", "instance")

	for _, kind := range scratchpipe.Kinds {
		tr, err := scratchpipe.NewTrainer(scratchpipe.Config{
			EnvConfig: scratchpipe.EnvConfig{Class: class, Seed: 7},
			Engine:    kind,
			CacheFrac: *cacheFrac,
		})
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}
		rep, err := tr.Train(*iters)
		if err != nil {
			log.Fatalf("%s: %v", kind, err)
		}
		inst := cost.P32xlarge
		if kind == scratchpipe.KindMultiGPU {
			inst = cost.P316xlarge
		}
		joules := scratchpipe.IterationEnergy(rep, scratchpipe.DefaultSystem(), kind)
		fmt.Printf("%-14s %14.2f %12.1f %16s %12s\n",
			kind, rep.IterTime*1e3, joules,
			cost.FormatUSD(cost.MillionIterCost(inst, rep.IterTime)), inst.Name)
	}

	fmt.Println()
	fmt.Println("The paper's Table I conclusion: the 8-GPU system is fastest per")
	fmt.Println("iteration but ScratchPipe on a single-GPU instance is the cheapest")
	fmt.Println("way to buy one million training iterations.")
}
