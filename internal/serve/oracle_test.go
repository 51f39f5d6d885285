package serve

import "repro/internal/metrics"

// referenceSimulate is the closed-form serving loop the package shipped
// before the event-driven simulator became the only one, kept here as
// the differential oracle. With no fault, resilience knob, or batching
// engaged a query's whole fate is known at its arrival — the router
// chooses, a full queue bounces it, otherwise it plans, is priced, and
// completes behind the replica's busy horizon — so one arrival-ordered
// pass with no event heap prices the run. It shares the fleet's
// building blocks (request stream, router.choose/note, worker.plan,
// ServiceTime) but none of the simulator's control flow or report
// assembly, which is what TestEventPathMatchesClosedForm checks. The
// router learns a query's keys only once the replica admitted it: a
// bounced query never reached the scratchpad.
func referenceSimulate(f *Fleet, arrivals []float64) (*Report, error) {
	var lat metrics.Series
	rep := &Report{
		Router:   Policy(f.cfg.Router),
		Replicas: f.cfg.Replicas,
		Offered:  int64(len(arrivals)),
	}
	var maxDone float64
	totalIDs := f.cfg.NumTables * f.cfg.Lookups
	q := f.newQuery()
	for _, at := range arrivals {
		f.nextRequest(q)
		w := f.router.choose(q.keys, f.workers, at, nil)
		wk := f.workers[w]
		if wk.depth(at) >= f.cfg.QueueCap {
			wk.drops++
			rep.Drops++
			continue
		}
		f.router.note(w, q.keys)
		var linkUp, linkDown float64
		if f.cfg.Topology != nil && wk.node != 0 {
			link := f.cfg.Topology.Link(0, wk.node)
			linkUp = link.TransferTime(idBytes(totalIDs))
			linkDown = link.TransferTime(respBytes)
			rep.CrossNode++
			if wk.host != f.cfg.Topology.Nodes[0].Host {
				rep.CrossHost++
			}
			rep.LinkTime += linkUp + linkDown
		}
		fills, evicts, coord, err := wk.plan(q.ids)
		if err != nil {
			return nil, err
		}
		f.maybePublish(wk, at)
		svc := f.ServiceTime(fills, totalIDs, coord)
		start := at + linkUp
		if wk.busyUntil > start {
			start = wk.busyUntil
		}
		done := start + svc
		wk.busyUntil = done
		wk.comp = append(wk.comp, done)
		if d := len(wk.comp) - wk.head; d > wk.peakDepth {
			wk.peakDepth = d
		}
		wk.served++
		rep.Served++
		rep.Fills += int64(fills)
		rep.Evictions += int64(evicts)
		rep.CoordTime += coord
		lat.Add(done + linkDown - at)
		if done+linkDown > maxDone {
			maxDone = done + linkDown
		}
	}
	for _, wk := range f.workers {
		var h, m int64
		for _, mgr := range wk.mgrs {
			st := mgr.Stats()
			h += st.Hits
			m += st.Misses
			cs := mgr.CoordStats()
			rep.CoordRounds += cs.Messages
			rep.CoordWallTime += cs.WallSeconds + cs.WallHiddenSeconds
		}
		rep.Hits += h
		rep.Misses += m
		rep.Workers = append(rep.Workers, WorkerReport{
			Node: wk.node, Host: wk.host,
			Served: wk.served, Drops: wk.drops,
			Hits: h, Misses: m,
			PeakDepth: wk.peakDepth,
		})
	}
	rep.Duration = maxDone
	if rep.Duration > 0 {
		rep.Throughput = float64(rep.Served) / rep.Duration
	}
	if n := len(arrivals); n > 0 && arrivals[n-1] > 0 {
		rep.OfferedRate = float64(rep.Offered) / arrivals[n-1]
	}
	rep.Latency = lat.Summarize()
	rep.Availability = 1
	rep.Goodput = rep.Throughput
	return rep, rep.checkConservation()
}
