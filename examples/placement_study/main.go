// Placement study: the communication wall, priced — and then pushed
// back. PR 2's sharded planner coordinates through shared memory at
// zero modeled cost; this study places the shards on real topology
// nodes (sockets, PCIe devices, hosts) and sweeps placement policies x
// shard counts, showing how the cross-shard coordinator's victim-merge,
// touch-stamp, and borrow traffic turns into iteration latency as
// placement crosses NUMA -> PCIe -> network tiers — the scaling wall
// "Understanding Training Efficiency of DLRM at Scale" (Acun et al.)
// measures — and what each point costs in Table I's units (one rented
// instance per host the placement spans).
//
// Parts 3 and 4 then sweep the coordination protocols of internal/shard
// (-coord on the CLIs): batched candidate polls through a per-host
// coordinator tier, and approximate epoch-quantized LRU. Hier is exact
// — identical plans, victims, and hit rates, verified in place — so the
// wall's retreat is pure protocol; approx additionally trades some
// eviction divergence for the last of the stamp-sync traffic, priced as
// its hit-rate and fill difference against the exact row.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/cost"
	"repro/internal/hw"
	"repro/scratchpipe"
)

func main() {
	classFlag := flag.String("class", "Medium", "locality class: Random|Low|Medium|High")
	iters := flag.Int("iters", 12, "simulated iterations per data point")
	rows := flag.Int64("rows", 200_000, "rows per embedding table (quick scale)")
	flag.Parse()

	class, err := scratchpipe.ParseClass(*classFlag)
	if err != nil {
		log.Fatal(err)
	}
	model := scratchpipe.DefaultModel()
	model.RowsPerTable = *rows
	model.BatchSize = 256

	runCoord := func(shards int, topoName string, policy scratchpipe.PlacementPolicy, mode scratchpipe.CoordMode) *scratchpipe.Report {
		var topo *scratchpipe.Topology
		if topoName != "single" {
			topo, err = scratchpipe.ParseTopology(topoName)
			if err != nil {
				log.Fatal(err)
			}
		}
		tr, err := scratchpipe.NewTrainer(scratchpipe.Config{
			EnvConfig: scratchpipe.EnvConfig{
				Model:     model,
				Class:     class,
				Shards:    shards,
				Topology:  topo,
				Placement: policy,
				Coord:     mode,
				Seed:      42,
			},
			Engine:    scratchpipe.KindScratchPipe,
			CacheFrac: 0.02,
		})
		if err != nil {
			log.Fatalf("%s/%s/%s/S=%d: %v", topoName, policy, mode, shards, err)
		}
		rep, err := tr.Train(*iters)
		if err != nil {
			log.Fatalf("%s/%s/%s/S=%d: %v", topoName, policy, mode, shards, err)
		}
		return rep
	}
	run := func(shards int, topoName string, policy scratchpipe.PlacementPolicy) *scratchpipe.Report {
		return runCoord(shards, topoName, policy, scratchpipe.CoordExact)
	}

	fmt.Printf("Placement study — ScratchPipe, class %s, %d tables x %d rows, 2%% cache\n\n",
		class, model.NumTables, model.RowsPerTable)

	// Part 1: the tier ladder. Same shard count, same placement policy,
	// topologies one interconnect tier apart. Coordination latency must
	// climb monotonically; cache statistics must not move at all.
	const ladderShards = 4
	fmt.Println("Tier ladder (4 shards, stripe placement): the same coordinator, priced per tier")
	fmt.Printf("%-12s %-8s %12s %14s %12s %10s\n",
		"topology", "tier", "iter (ms)", "coord (ms)", "hit rate", "hosts")
	base := run(ladderShards, "single", scratchpipe.PlaceStripe)
	for _, row := range []struct{ topo, tier string }{
		{"single", "local"},
		{"numa4", "numa"},
		{"pcie4", "pcie"},
		{"cluster4x1", "net"},
	} {
		rep := run(ladderShards, row.topo, scratchpipe.PlaceStripe)
		topo, _ := scratchpipe.ParseTopology(row.topo)
		cl := cost.ClusterFor(topo, cost.P32xlarge)
		fmt.Printf("%-12s %-8s %12.3f %14.4f %11.1f%% %10d\n",
			row.topo, row.tier, rep.IterTime*1e3, rep.CoordTime*1e3, rep.HitRate()*100, cl.Hosts)
		if rep.Hits != base.Hits || rep.Misses != base.Misses || rep.Evictions != base.Evictions {
			log.Fatalf("%s: cache behaviour changed under placement — invariance broken", row.topo)
		}
	}

	// Part 2: the policy x shard-count frontier on the two-host cluster.
	// More shards buy parallelism a 1-CPU simulation cannot show, but
	// every extra shard adds coordinator traffic; the frontier shows
	// throughput against rented-fleet cost.
	fmt.Println()
	fmt.Println("Policy frontier on cluster2x2 (two hosts x two sockets, network between hosts)")
	fmt.Printf("%-10s %-10s %12s %14s %16s %14s\n",
		"placement", "shards", "iter (ms)", "coord (ms)", "$/1M iters", "fleet")
	topo, _ := scratchpipe.ParseTopology("cluster2x2")
	for _, policy := range []scratchpipe.PlacementPolicy{
		scratchpipe.PlaceStripe, scratchpipe.PlaceRange, scratchpipe.PlaceLoadAware,
	} {
		for _, shards := range []int{2, 4, 8} {
			rep := run(shards, "cluster2x2", policy)
			// Rent only the hosts this placement actually spans (e.g.
			// stripe S=2 keeps both shards on host 0). Host span is
			// weight-independent for stripe/range by construction and
			// for greedy load-aware whenever every shard carries mass
			// (empty nodes win ties before any node doubles up), so
			// nil weights reproduce the engine's placements' span.
			pl, err := hw.NewPlacement(policy, topo, shards, nil)
			if err != nil {
				log.Fatal(err)
			}
			fleet := cost.Cluster{Instance: cost.P32xlarge, Hosts: pl.Hosts()}
			fmt.Printf("%-10s %-10d %12.3f %14.4f %16s %14s\n",
				policy, shards, rep.IterTime*1e3, rep.CoordTime*1e3,
				cost.FormatUSD(fleet.MillionIterCost(rep.IterTime)), fleet.Name())
		}
	}
	single := cost.Cluster{Instance: cost.P32xlarge, Hosts: 1}
	fmt.Printf("%-10s %-10d %12.3f %14.4f %16s %14s   <- the paper's design point\n",
		"(none)", 1, base.IterTime*1e3, 0.0,
		cost.FormatUSD(single.MillionIterCost(base.IterTime)), single.Name())

	// Part 3: the coordination-protocol frontier on the two-host
	// cluster. Same placement, same shard count — only the protocol
	// changes. Hier must leave cache behaviour untouched (verified in
	// place); every successive protocol must shed rounds.
	fmt.Println()
	fmt.Println("Coordination protocols on cluster2x2 (4 shards, stripe): the wall, renegotiated")
	fmt.Printf("%-10s %12s %14s %12s %12s %22s\n",
		"coord", "iter (ms)", "coord (ms)", "rounds/iter", "KB/iter", "divergence")
	modes := []scratchpipe.CoordMode{scratchpipe.CoordExact, scratchpipe.CoordHier, scratchpipe.CoordApprox}
	exact := runCoord(4, "cluster2x2", scratchpipe.PlaceStripe, scratchpipe.CoordExact)
	for _, mode := range modes {
		rep := exact
		if mode != scratchpipe.CoordExact {
			rep = runCoord(4, "cluster2x2", scratchpipe.PlaceStripe, mode)
		}
		div := "exact by construction"
		if mode == scratchpipe.CoordApprox {
			div = fmt.Sprintf("hitΔ %+.3f%%, fills %+d", (hitRate(rep)-hitRate(exact))*100, rep.Fills-exact.Fills)
		} else if rep.Hits != exact.Hits || rep.Misses != exact.Misses || rep.Evictions != exact.Evictions {
			log.Fatalf("%s: cache behaviour diverged from exact — exactness broken", mode)
		}
		fmt.Printf("%-10s %12.3f %14.4f %12.1f %12.2f %22s\n",
			mode, rep.IterTime*1e3, rep.CoordTime*1e3,
			float64(rep.Coord.Messages)/float64(rep.Iters),
			rep.Coord.Bytes()/float64(rep.Iters)/1e3, div)
	}

	// Part 4: where the wall retreats to. The tier ladder again, one
	// column per protocol: the wall sits at the first tier whose
	// coordination dominates the iteration (coord > 25% of iter).
	fmt.Println()
	fmt.Println("Wall retreat: coordination ms/iter across the tier ladder, per protocol")
	fmt.Printf("%-12s %-8s", "topology", "tier")
	for _, mode := range modes {
		fmt.Printf(" %18s", mode)
	}
	fmt.Println()
	wall := map[scratchpipe.CoordMode]string{}
	for _, row := range []struct{ topo, tier string }{
		{"numa4", "numa"},
		{"pcie4", "pcie"},
		{"cluster4x1", "net"},
	} {
		fmt.Printf("%-12s %-8s", row.topo, row.tier)
		for _, mode := range modes {
			rep := runCoord(ladderShards, row.topo, scratchpipe.PlaceStripe, mode)
			marker := " "
			if rep.CoordTime > 0.25*rep.IterTime {
				marker = "*"
				if wall[mode] == "" {
					wall[mode] = row.tier
				}
			}
			fmt.Printf(" %16.3f%s ", rep.CoordTime*1e3, marker)
		}
		fmt.Println()
	}
	fmt.Printf("%-21s", "wall (coord>25% iter)")
	for _, mode := range modes {
		at := wall[mode]
		if at == "" {
			at = "none"
		}
		fmt.Printf(" %18s", at)
	}
	fmt.Println()

	fmt.Println()
	fmt.Println(strings.TrimSpace(`
Reading: plans, evictions, and hit rates are identical in every exact
and hier row — placement prices the coordination the shared-memory
planner got for free, and the hierarchical protocol renegotiates that
price without changing a single eviction.
Exact coordination pays one cross-node round per eviction event, so
PCIe- and network-tier placements put the global-LRU merge on the
critical path (the Acun et al. scaling wall). Hier's batched candidate
polls collapse O(evictions) rounds into O(shards) per Plan; its host
tier then moves most of those onto intra-host links, leaving O(hosts)
cross-network rounds — the wall retreats past PCIe and only reappears
where network latency x remaining rounds still bites. Approx LRU drops
the last per-Plan stamp-sync traffic by quantizing recency epochs; its
eviction order may drift from exact LRU, and the divergence column
prices the drift against the exact row (hit-rate and fill deltas)
instead of assuming it away. Range placement keeps neighbor
shards co-located (fewest cross-host borrow hops); load-aware placement
balances hot-table shard mass and pulls the worst-case rows in when
table heat is skewed.`))
}

// hitRate is a run's occurrence-level scratchpad hit rate.
func hitRate(rep *scratchpipe.Report) float64 {
	return float64(rep.Hits) / float64(rep.Hits+rep.Misses)
}
