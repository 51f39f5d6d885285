// Serving batch study: what replica-side request batching buys an
// online recommendation fleet. Each replica worker dequeues up to a
// cap of queued queries and services them as ONE scratchpad pass —
// shared embedding keys probed once, one PCIe round trip for the whole
// batch, one GPU gather+pool launch, and a dense forward whose weight
// reads are paid once while per-query FLOPs stack marginally
// (internal/serve.BatchSpec). Under light load the batcher degrades to
// singles; under a flash crowd the queue is where batches come from,
// and amortization is the difference between drowning and draining.
//
//   - Part 1 sweeps the batch cap across arrival shapes (steady
//     Poisson vs a flash crowd) on a two-host cluster under the
//     telemetry-driven router, pricing every point in $/1M queries.
//   - Part 2 verifies the no-op contract: a cap of 1 must produce a
//     report deep-equal to one from a config with batching absent —
//     the byte-identity discipline the serve package promises.
//
// The study hard-fails (log.Fatalf) unless a cap >= 8 strictly beats
// cap 1 on BOTH throughput and $/1M-query under flash load — the
// acceptance bar for the batching tentpole — and unless the cap-1
// report is identical to the unbatched one.
package main

import (
	"flag"
	"fmt"
	"log"
	"reflect"

	"repro/internal/cost"
	"repro/scratchpipe"
)

func main() {
	classFlag := flag.String("class", "High", "locality class: Random|Low|Medium|High")
	requests := flag.Int("requests", 4096, "simulated queries per data point")
	rows := flag.Int64("rows", 200_000, "rows per embedding table (quick scale)")
	flag.Parse()

	class, err := scratchpipe.ParseClass(*classFlag)
	if err != nil {
		log.Fatal(err)
	}
	model := scratchpipe.DefaultModel()
	model.RowsPerTable = *rows
	model.BatchSize = 256

	const topoName = "cluster2x2"
	const replicas = 4
	topo, err := scratchpipe.ParseTopology(topoName)
	if err != nil {
		log.Fatal(err)
	}
	cl := cost.ClusterFor(topo, cost.P32xlarge)

	run := func(arrival string, batch scratchpipe.BatchSpec) *scratchpipe.ServeReport {
		spec, err := scratchpipe.ParseArrival(arrival)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := scratchpipe.NewTrainer(scratchpipe.Config{
			EnvConfig: scratchpipe.EnvConfig{
				Model:    model,
				Class:    class,
				Topology: topo,
				Seed:     42,
				Serve: scratchpipe.ServeOptions{
					Replicas: replicas,
					Router:   scratchpipe.RouterTelemetry,
					Arrival:  spec,
					Requests: *requests,
					Batch:    batch,
				},
			},
			Engine:    scratchpipe.KindScratchPipe,
			CacheFrac: 0.02,
		})
		if err != nil {
			log.Fatalf("%s/batch=%v: %v", arrival, batch, err)
		}
		rep, err := tr.Serve()
		if err != nil {
			log.Fatalf("%s/batch=%v: %v", arrival, batch, err)
		}
		return rep
	}

	fmt.Printf("Serving batch study — %s, %d replicas, telemetry router, class %s, %d tables x %d rows, 2%% cache, %d queries/point\n\n",
		topoName, replicas, class, model.NumTables, model.RowsPerTable, *requests)

	// Part 1: the batch-cap frontier. Caps 1..16 across a steady and a
	// flash arrival shape. Under steady load the queue rarely holds a
	// second query, so occupancy stays near 1 and nothing is lost;
	// under the flash crowd the burst queue feeds real batches and the
	// amortized pass is what keeps the fleet from shedding.
	caps := []int{1, 2, 4, 8, 16}
	arrivals := []struct{ label, spec string }{
		{"poisson", "poisson:4000"},
		{"flash", "flash:20000:10"},
	}
	fmt.Println("Batch-cap frontier")
	fmt.Printf("%-10s %-8s %12s %10s %10s %10s %8s %9s %9s %12s\n",
		"arrival", "cap", "tput (q/s)", "hit rate", "p50 (ms)", "p99 (ms)", "drops", "batches", "avg occ", "$/1M q")
	frontier := map[string]map[int]*scratchpipe.ServeReport{}
	for _, arr := range arrivals {
		frontier[arr.label] = map[int]*scratchpipe.ServeReport{}
		for _, cap := range caps {
			rep := run(arr.spec, scratchpipe.BatchSpec{Cap: cap})
			frontier[arr.label][cap] = rep
			occ := "-"
			if rep.Batches > 0 {
				occ = fmt.Sprintf("%.2f", float64(rep.BatchedQueries)/float64(rep.Batches))
			}
			fmt.Printf("%-10s %-8d %12.0f %9.1f%% %10.3f %10.3f %8d %9d %9s %12s\n",
				arr.label, cap, rep.Throughput, rep.HitRate()*100,
				rep.Latency.P50*1e3, rep.Latency.P99*1e3, rep.Drops,
				rep.Batches, occ, cost.FormatUSD(cl.MillionQueryCost(rep.Throughput)))
		}
	}

	// Part 2: the no-op contract. Cap 1 must be indistinguishable from
	// batching left unconfigured: same code path, same report, down to
	// the last counter. This is the regression tripwire for the
	// byte-identity discipline (-serve-batch 1 == flag absent).
	fmt.Println()
	for _, arr := range arrivals {
		unbatched := run(arr.spec, scratchpipe.BatchSpec{})
		if !reflect.DeepEqual(frontier[arr.label][1], unbatched) {
			log.Fatalf("%s: cap-1 report differs from unbatched report — the no-op contract is broken", arr.label)
		}
	}
	fmt.Println("No-op contract: cap-1 reports deep-equal unbatched reports on every arrival shape.")

	// The acceptance bar: under the flash crowd, a real batch cap must
	// strictly beat singles on throughput AND on the $/1M-query bill —
	// amortization has to show up in the ledger, not just the queue.
	best := frontier["flash"][8]
	if f16 := frontier["flash"][16]; f16.Throughput > best.Throughput {
		best = f16
	}
	single := frontier["flash"][1]
	if best.Throughput <= single.Throughput {
		log.Fatalf("flash: batched throughput %.0f q/s does not beat cap-1 %.0f q/s — amortization broken",
			best.Throughput, single.Throughput)
	}
	batchedUSD := cl.MillionQueryCost(best.Throughput)
	singleUSD := cl.MillionQueryCost(single.Throughput)
	if batchedUSD >= singleUSD {
		log.Fatalf("flash: batched $/1M %.4f does not beat cap-1 $/1M %.4f — amortization broken",
			batchedUSD, singleUSD)
	}
	if best.Batches == 0 || best.MaxBatch < 2 {
		log.Fatalf("flash: batcher never formed a multi-query batch (batches %d, max %d) — study is vacuous",
			best.Batches, best.MaxBatch)
	}
	fmt.Printf("Flash acceptance: cap %d beats cap 1 — %.0f vs %.0f q/s, %s vs %s per 1M queries (max batch %d).\n",
		best.Batch.Cap, best.Throughput, single.Throughput,
		cost.FormatUSD(batchedUSD), cost.FormatUSD(singleUSD), best.MaxBatch)
}
