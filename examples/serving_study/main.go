// Serving study: the routing frontier of an online recommendation
// fleet. Training ends and the same scratchpad architecture goes on
// call: R replica workers, each holding a private embedding scratchpad,
// served by a frontend router under an open-loop arrival process
// (internal/serve). Routing is where the fleet trades locality against
// load — spreading queries balances queues but dilutes every replica's
// cache, concentrating them heats one cache at the risk of queue
// buildup — and this study walks that frontier three ways:
//
//   - Part 1 sweeps all four routing policies across arrival shapes
//     (steady Poisson and a flash crowd) on one host, showing the
//     hit-aware router beating the locality-blind policies on hit rate
//     without surrendering the latency tail.
//   - Part 2 scales the replica count under the hit-aware router and
//     prices each fleet size in $/1M queries.
//   - Part 3 climbs the topology tier ladder (single host -> NUMA ->
//     two-host cluster), charging the router-to-replica links that a
//     spread fleet crosses.
//
// The study hard-fails (log.Fatalf) if the hit-aware router does not
// strictly beat random routing on both hit rate and p99 latency under
// the skewed trace — the acceptance bar for the routing frontier.
package main

import (
	"flag"
	"fmt"
	"log"

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

	run := func(topoName string, replicas int, router scratchpipe.RouterPolicy, arrival string) *scratchpipe.ServeReport {
		var topo *scratchpipe.Topology
		if topoName != "single" {
			topo, err = scratchpipe.ParseTopology(topoName)
			if err != nil {
				log.Fatal(err)
			}
		}
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
					Router:   router,
					Arrival:  spec,
					Requests: *requests,
				},
			},
			Engine:    scratchpipe.KindScratchPipe,
			CacheFrac: 0.02,
		})
		if err != nil {
			log.Fatalf("%s/%s/R=%d: %v", topoName, router, replicas, err)
		}
		rep, err := tr.Serve()
		if err != nil {
			log.Fatalf("%s/%s/R=%d: %v", topoName, router, replicas, err)
		}
		return rep
	}
	price := func(topoName string, qps float64) (string, string) {
		var topo *scratchpipe.Topology
		if topoName != "single" {
			topo, _ = scratchpipe.ParseTopology(topoName)
		}
		cl := cost.ClusterFor(topo, cost.P32xlarge)
		return cost.FormatUSD(cl.MillionQueryCost(qps)), cl.Name()
	}

	fmt.Printf("Serving study — ScratchPipe replicas on call, class %s, %d tables x %d rows, 2%% cache, %d queries/point\n\n",
		class, model.NumTables, model.RowsPerTable, *requests)

	// Part 1: the routing frontier. Four policies x two arrival shapes
	// on one host with four replicas. The locality-blind policies set
	// the baseline; hit-aware must beat random on hit rate AND p99.
	const frontierReplicas = 4
	routers := []scratchpipe.RouterPolicy{
		scratchpipe.RouterRandom, scratchpipe.RouterRoundRobin,
		scratchpipe.RouterLeastLoad, scratchpipe.RouterHitAware,
	}
	arrivals := []struct{ label, spec string }{
		{"poisson", "poisson:2000"},
		{"flash", "flash:2000"},
	}
	fmt.Printf("Routing frontier (single host, %d replicas)\n", frontierReplicas)
	fmt.Printf("%-12s %-14s %12s %10s %10s %10s %8s %12s\n",
		"router", "arrival", "tput (q/s)", "hit rate", "p50 (ms)", "p99 (ms)", "drops", "$/1M q")
	frontier := map[string]map[scratchpipe.RouterPolicy]*scratchpipe.ServeReport{}
	for _, arr := range arrivals {
		frontier[arr.label] = map[scratchpipe.RouterPolicy]*scratchpipe.ServeReport{}
		for _, router := range routers {
			rep := run("single", frontierReplicas, router, arr.spec)
			frontier[arr.label][router] = rep
			usd, _ := price("single", rep.Throughput)
			fmt.Printf("%-12s %-14s %12.0f %9.1f%% %10.3f %10.3f %8d %12s\n",
				router, arr.label, rep.Throughput, rep.HitRate()*100,
				rep.Latency.P50*1e3, rep.Latency.P99*1e3, rep.Drops, usd)
		}
	}
	// The acceptance bar: under the skewed trace, locality-aware
	// routing must strictly win the frontier, not trade one axis for
	// the other.
	for _, arr := range arrivals {
		ha, rnd := frontier[arr.label][scratchpipe.RouterHitAware], frontier[arr.label][scratchpipe.RouterRandom]
		if ha.HitRate() <= rnd.HitRate() {
			log.Fatalf("%s: hitaware hit rate %.3f does not beat random %.3f — frontier broken",
				arr.label, ha.HitRate(), rnd.HitRate())
		}
		if ha.Latency.P99 >= rnd.Latency.P99 {
			log.Fatalf("%s: hitaware p99 %.4fms does not beat random %.4fms — frontier broken",
				arr.label, ha.Latency.P99*1e3, rnd.Latency.P99*1e3)
		}
	}

	// Part 2: replica scaling under the hit-aware router. More replicas
	// drain queues faster but split the query stream across more cold
	// caches; the $/1M-query column prices the trade (replicas share
	// one host here, so the fleet bill is flat — the cost moves only
	// with throughput).
	fmt.Println()
	fmt.Println("Replica scaling (single host, hitaware, steady arrivals)")
	fmt.Printf("%-10s %12s %10s %10s %10s %8s %12s\n",
		"replicas", "tput (q/s)", "hit rate", "p50 (ms)", "p99 (ms)", "drops", "$/1M q")
	for _, r := range []int{2, 4, 8} {
		rep := run("single", r, scratchpipe.RouterHitAware, "poisson:2000")
		usd, _ := price("single", rep.Throughput)
		fmt.Printf("%-10d %12.0f %9.1f%% %10.3f %10.3f %8d %12s\n",
			r, rep.Throughput, rep.HitRate()*100,
			rep.Latency.P50*1e3, rep.Latency.P99*1e3, rep.Drops, usd)
	}

	// Part 3: the tier ladder. The same fleet spread across topology
	// tiers: replicas land on nodes round-robin, so every tier past
	// "single" charges router-to-replica transfers to the links the
	// spread crosses (surfacing as link time and a fatter tail), and
	// the cluster tier rents a second host.
	fmt.Println()
	fmt.Println("Tier ladder (4 replicas, hitaware, steady arrivals): the same fleet, spread and priced per tier")
	fmt.Printf("%-12s %-8s %12s %10s %10s %12s %12s %14s\n",
		"topology", "tier", "tput (q/s)", "hit rate", "p99 (ms)", "link (ms)", "$/1M q", "fleet")
	for _, row := range []struct{ topo, tier string }{
		{"single", "local"},
		{"numa2", "numa"},
		{"cluster2x2", "net"},
	} {
		rep := run(row.topo, frontierReplicas, scratchpipe.RouterHitAware, "poisson:2000")
		usd, fleet := price(row.topo, rep.Throughput)
		fmt.Printf("%-12s %-8s %12.0f %9.1f%% %10.3f %12.4f %12s %14s\n",
			row.topo, row.tier, rep.Throughput, rep.HitRate()*100,
			rep.Latency.P99*1e3, rep.LinkTime*1e3, usd, fleet)
		if row.topo == "cluster2x2" && rep.CrossHost == 0 {
			log.Fatalf("%s: no cross-host routing traffic — tier ladder broken", row.topo)
		}
	}
}
