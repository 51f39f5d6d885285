// Pipeline trace: a didactic walkthrough of ScratchPipe's control
// structures in the spirit of the paper's Figure 11 — a tiny scratchpad,
// a stream of two-ID mini-batches, and a cycle-by-cycle printout of the
// Hit-Map, the hold protection, and the fill/eviction schedules.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/shard"
)

func main() {
	// A 5-slot scratchpad, exactly like Figure 11's Storage array, on
	// one shard.
	sp, err := shard.New(shard.Config{Scratchpad: core.Config{
		Slots:        5,
		Reserve:      8,
		Policy:       "lru",
		PastWindow:   3,
		FutureWindow: 0, // Figure 11's example shows the past window only
	}})
	if err != nil {
		log.Fatal(err)
	}

	// The mini-batch ID stream of Figure 11 (two sparse IDs per batch).
	batches := [][]int64{
		{7089, 2021},
		{3010, 7089},
		{1017, 5382},
		{7089, 1017},
		{6547, 3010},
		{9021, 1017},
		{4200, 3010},
	}

	fmt.Println("ScratchPipe control-plane walkthrough (cf. paper Figure 11)")
	fmt.Println("5-slot scratchpad, LRU, past-window 3 (holds released 3 cycles later)")
	fmt.Println()
	for cycle, ids := range batches {
		// A batch leaves the protection window after PastWindow
		// cycles: it "enters Train".
		if cycle >= 3 {
			if err := sp.Release(cycle - 3); err != nil {
				log.Fatal(err)
			}
		}
		plan, err := sp.Plan(cycle, ids, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cycle %d  [Plan] batch %d  IDs %v\n", cycle, cycle, ids)
		fmt.Printf("         hits=%d misses=%d\n", plan.OccHits, plan.OccMisses)
		for _, f := range plan.Fills {
			fmt.Printf("         fill   id %-5d -> slot %d   (Collect: read CPU row; Insert: write slot)\n", f.ID, f.Slot)
		}
		for _, e := range plan.Evictions {
			fmt.Printf("         evict  id %-5d <- slot %d   (Collect: read slot; Insert: write back CPU row)\n", e.OldID, e.Slot)
		}
		// Dump the scratchpad state: slot -> key (held?).
		fmt.Printf("         scratchpad:")
		for slot := int32(0); slot < int32(sp.TotalSlots()); slot++ {
			key := sp.Key(slot)
			if key < 0 {
				continue
			}
			mark := " "
			if sp.Held(slot) {
				mark = "*"
			}
			fmt.Printf("  [%d]=%d%s", slot, key, mark)
		}
		fmt.Println()
		fmt.Println()
	}
	fmt.Println("(* = slot protected by an in-flight mini-batch's hold mask)")
	st := sp.Stats()
	fmt.Printf("totals: %d queries, %d hits, %d misses, %d fills, %d evictions, reserve peak %d\n",
		st.Queries, st.Hits, st.Misses, st.Fills, st.Evictions, st.ReservePeak)
}
