// Serving failure study: what replica failures cost an online
// recommendation fleet, and what the resilience stack buys back. The
// serving fleet from examples/serving_study goes on call under fault
// injection (internal/serve + hw.FaultPlan's replica/host events): a
// flash crowd builds deep queues, a replica dies mid-spike taking its
// queue and its warm scratchpad with it, and the router view, the
// client retry/hedge policies, and the admission controller decide how
// much of the offered load still comes back as good responses.
//
//   - Part 1 holds the fault plan fixed (one replica killed mid flash
//     crowd) and sweeps the resilience stack: no client policy, retries
//     with exponential backoff, retry+hedging, hedging alone, and
//     admission shedding with CPU-path degraded mode. Availability,
//     goodput, and the outcome counters show what each layer recovers.
//   - Part 2 sweeps the fault plan (fault-free, one replica kill, a
//     whole-host kill taking two replicas, kill+heal with re-warm)
//     against the no-retry and retry+failover clients, charting the
//     availability vs $/1M-good-queries frontier. Rows marked * are
//     Pareto-optimal: no other configuration is both cheaper per good
//     answer and more available.
//
// Every report is re-checked against the conservation invariant
// offered = served + shed + dropped + timed-out, and the study
// hard-fails (log.Fatalf) if retry+failover does not strictly beat the
// no-retry client on goodput under the mid-run replica kill — the
// acceptance bar for the resilience stack.
//
// The backoff matters as much as the retry budget: a retry that fires
// while the flash crowd still saturates the surviving queues just
// bounces off a full queue and burns its budget, so the client backs
// off past the spike (50 ms) before failing over.
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
	requests := flag.Int("requests", 9000, "simulated queries per data point")
	rows := flag.Int64("rows", 200_000, "rows per embedding table (quick scale)")
	flag.Parse()

	class, err := scratchpipe.ParseClass(*classFlag)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := scratchpipe.ParseTopology("cluster2x2")
	if err != nil {
		log.Fatal(err)
	}
	fleet := cost.ClusterFor(topo, cost.P32xlarge)
	model := scratchpipe.DefaultModel()
	model.RowsPerTable = *rows
	model.BatchSize = 256

	// The common scenario: four hit-aware replicas across the two-host
	// cluster under a flash crowd (8x the steady 4000 q/s over 5% of the
	// horizon starting at t=0.2 of it). The spike overruns the fleet and
	// builds queues right when the fault plan strikes, and the run keeps
	// going well past the window, so recovered work counts as goodput
	// instead of stretching the measured duration.
	const arrival = "flash:4000:8:0.2:0.05"
	run := func(faultPlan string, opts func(*scratchpipe.ServeOptions)) *scratchpipe.ServeReport {
		faults, err := scratchpipe.ParseFaultPlan(faultPlan)
		if err != nil {
			log.Fatalf("fault plan %q: %v", faultPlan, err)
		}
		spec, err := scratchpipe.ParseArrival(arrival)
		if err != nil {
			log.Fatal(err)
		}
		serve := scratchpipe.ServeOptions{
			Replicas: 4,
			Router:   scratchpipe.RouterHitAware,
			Arrival:  spec,
			Requests: *requests,
			QueueCap: 64,
			Faults:   faults,
			Deadline: 0.2, // 200 ms: generous, so only lost work times out
		}
		if opts != nil {
			opts(&serve)
		}
		tr, err := scratchpipe.NewTrainer(scratchpipe.Config{
			EnvConfig: scratchpipe.EnvConfig{Model: model, Class: class, Topology: topo, Seed: 42, Serve: serve},
			Engine:    scratchpipe.KindScratchPipe,
			CacheFrac: 0.02,
		})
		if err != nil {
			log.Fatalf("faults %q: %v", faultPlan, err)
		}
		rep, err := tr.Serve()
		if err != nil {
			log.Fatalf("faults %q: %v", faultPlan, err)
		}
		// The books must balance exactly: every offered query is served,
		// shed by admission, dropped at a queue, or timed out — nothing
		// vanishes when a replica dies with a full queue.
		if rep.Served+rep.Shed+rep.Drops+rep.TimedOut != rep.Offered {
			log.Fatalf("faults %q: conservation violated: %d served + %d shed + %d drops + %d timed out != %d offered",
				faultPlan, rep.Served, rep.Shed, rep.Drops, rep.TimedOut, rep.Offered)
		}
		return rep
	}

	fmt.Printf("Serving failure study — 4 hitaware replicas on cluster2x2, class %s, arrival %s, %d queries/point\n",
		class, arrival, *requests)
	fmt.Println()

	// Part 1: the resilience stack under one mid-spike replica kill.
	// replica1 dies at t=0.55s — inside the flash window, with its
	// queue at the 64-entry cap — and never heals: its queued work is
	// lost unless a client policy recovers it, and its scratchpad heat
	// is gone for good.
	const kill = "replica1@0.55"
	retryOpt := func(o *scratchpipe.ServeOptions) {
		o.Retry = scratchpipe.RetrySpec{Max: 3, Backoff: 0.05}
	}
	policies := []struct {
		label string
		opts  func(*scratchpipe.ServeOptions)
	}{
		{"none", nil},
		{"retry 3:50ms", retryOpt},
		{"retry+hedge 10ms", func(o *scratchpipe.ServeOptions) {
			retryOpt(o)
			o.Hedge = 0.01
		}},
		{"hedge 10ms", func(o *scratchpipe.ServeOptions) { o.Hedge = 0.01 }},
		{"shed+degrade", func(o *scratchpipe.ServeOptions) {
			o.Admission = scratchpipe.AdmissionSpec{
				Policy:  scratchpipe.AdmitCheapest,
				Degrade: true,
			}
		}},
	}
	fmt.Printf("Resilience stack under %s (mid flash crowd, queue flushed, scratchpad lost)\n", kill)
	fmt.Printf("%-18s %9s %12s %8s %8s %8s %8s %8s %8s\n",
		"client policy", "avail", "goodput q/s", "served", "timeout", "retried", "hedged", "shed", "degr")
	var noRetry, withRetry *scratchpipe.ServeReport
	for _, p := range policies {
		rep := run(kill, p.opts)
		fmt.Printf("%-18s %8.2f%% %12.0f %8d %8d %8d %8d %8d %8d\n",
			p.label, rep.Availability*100, rep.Goodput, rep.Served,
			rep.TimedOut, rep.Retried, rep.Hedged, rep.Shed, rep.Degraded)
		switch p.label {
		case "none":
			noRetry = rep
		case "retry 3:50ms":
			withRetry = rep
		}
	}
	// The acceptance bar: failing over dead-replica work to survivors
	// must strictly buy back good responses, not just shuffle the loss
	// between the timeout and drop columns.
	if withRetry.Goodput <= noRetry.Goodput {
		log.Fatalf("retry+failover goodput %.0f q/s does not beat no-retry %.0f q/s under %s — resilience stack broken",
			withRetry.Goodput, noRetry.Goodput, kill)
	}
	if withRetry.Retried == 0 {
		log.Fatalf("retry client never retried under %s — kill flush not reaching the client", kill)
	}
	fmt.Printf("=> retry+failover recovers %+.0f q/s goodput over the no-retry client (%d retries, %d fewer timeouts)\n",
		withRetry.Goodput-noRetry.Goodput, withRetry.Retried, noRetry.TimedOut-withRetry.TimedOut)

	// Part 2: the fault-rate frontier. Each fault plan runs with the
	// no-retry and the retry+failover client; the cost column rents the
	// whole two-host fleet for the run's wall clock and prices every
	// MILLION GOOD responses — losing availability without losing
	// throughput still shows up as a pricier good answer. The kill+heal
	// plan brings the replica back at t=0.9s with a cold scratchpad, so
	// its recovery bill is re-warm fills instead of permanent downtime.
	fmt.Println()
	fmt.Println("Fault-rate frontier (no-retry vs retry+failover, $/1M good responses)")
	fmt.Printf("%-22s %-14s %9s %12s %8s %8s %10s\n",
		"fault plan", "client", "avail", "goodput q/s", "timeout", "rewarm", "$/1M good")
	type point struct {
		plan, client string
		avail, usd   float64
	}
	var pts []point
	for _, plan := range []string{"", kill, "host1@1", "replica1@0.55-1.1"} {
		for _, client := range []struct {
			label string
			opts  func(*scratchpipe.ServeOptions)
		}{{"no-retry", nil}, {"retry 3:50ms", retryOpt}} {
			rep := run(plan, client.opts)
			usd := fleet.MillionQueryCost(rep.Goodput)
			label := plan
			if label == "" {
				label = "fault-free"
			}
			fmt.Printf("%-22s %-14s %8.2f%% %12.0f %8d %8d   $%8.4f\n",
				label, client.label, rep.Availability*100, rep.Goodput,
				rep.TimedOut, rep.RewarmFills, usd)
			pts = append(pts, point{label, client.label, rep.Availability, usd})
		}
	}
	// Pareto marks: a row survives if no other row is both strictly
	// cheaper per good response and at least as available.
	fmt.Println()
	fmt.Println("Pareto frontier (availability vs $/1M good responses):")
	for _, p := range pts {
		dominated := false
		for _, q := range pts {
			if q.usd < p.usd && q.avail >= p.avail {
				dominated = true
				break
			}
		}
		mark := " "
		if !dominated {
			mark = "*"
		}
		fmt.Printf("  %s %-22s %-14s %.2f%% at $%.4f per 1M good\n",
			mark, p.plan, p.client, p.avail*100, p.usd)
	}
}
