// The serving simulator: one event-driven engine plays every run, from
// a zero-fault unbatched fleet (whose event heap simply stays empty, so
// the loop degenerates to one arrival-ordered pass) to replica
// failures, client retries/hedging, deadlines, admission control, and
// request batching.
//
// Determinism. The virtual clock advances through a single event heap
// ordered by (time, kind, insertion sequence): kills and heals sort
// before batch launches, retries and hedges at the same instant, and
// arrivals are merged in at heap-top time. Attempt outcomes are
// resolved eagerly at dispatch — a worker's outage schedule is static,
// so an attempt whose completion lands past the worker's next kill is
// doomed the moment it enqueues and fails when the kill event flushes
// the queue. No PRNG is consulted anywhere outside the router and the
// request stream.
//
// Client knowledge. The frontend reacts only to what a real client
// could observe: a delivered response, a failure notification when a
// replica dies with the query in its queue, and its own timers (backoff
// and hedge delays, the deadline). A retry is scheduled only when no
// other attempt of the query is outstanding; a response that will
// arrive in the future never suppresses a hedge or retry firing now.
//
// Query lifetime. Queries are pooled and streamed, not tabled: a query
// is drawn into a recycled buffer at its arrival, and the moment
// nothing can touch it again — no heap event, doomed list or pending
// batch slot refers to it — its fate is final, so it is classified into
// the report and returned to the free list. Host memory is bounded by
// the queries in flight, not by the run length, and a settled run
// allocates nothing per query.

package serve

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// query is one client request's lifecycle across all its attempts.
type query struct {
	at   float64
	ids  [][]int64
	keys []int64
	// bestDone is the earliest response delivery time across successful
	// attempts (+Inf until one settles); winner the replica that
	// delivered it; winnerDeg whether that winning attempt ran on the
	// CPU fallback path (its latency reports in DegradedLatency).
	bestDone  float64
	winner    int
	winnerDeg bool
	// tried lists replicas this query has attempted (exclusion set for
	// retries and hedges); retries counts the retry budget spent.
	tried   []int
	retries int
	// resolved marks queries finalized before completion: shed by
	// admission or dropped off a full queue.
	resolved bool
	// refs counts what can still reach the query: heap events, workers'
	// doomed lists and pending batch slots, and the arrival being
	// handled. release retires the query when it reaches zero.
	refs int
}

// evKind orders same-instant events: infrastructure first (a kill at
// time t flushes the queue before anything else lands at t), then batch
// launches (a same-instant retry lands after the launch and waits for
// the next batch), then client timers.
type evKind uint8

const (
	evKill evKind = iota
	evHeal
	evBatch
	evRetry
	evHedge
)

// dispatchMode distinguishes the three ways a query reaches a replica.
type dispatchMode uint8

const (
	modeFirst dispatchMode = iota
	modeRetry
	modeHedge
)

type event struct {
	t    float64
	kind evKind
	seq  int64
	w    int
	q    *query
}

func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// sim is the per-run state of the simulator.
type sim struct {
	f      *Fleet
	rep    *Report
	lat    metrics.Series
	degLat metrics.Series
	events []event
	seq    int64
	// free holds retired queries whose buffers the next arrivals reuse.
	free      []*query
	totalIDs  int
	shedDepth int
	good      int64
	maxDone   float64
	// batchIDs is the reusable per-table concatenation buffer a launch
	// of several members plans through (nil when batching is off).
	batchIDs [][]int64
}

// push schedules e; an event carrying a query holds a reference to it
// until the event has fired.
func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	if e.q != nil {
		e.q.refs++
	}
	s.events = append(s.events, e)
	i := len(s.events) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(s.events[i], s.events[p]) {
			break
		}
		s.events[i], s.events[p] = s.events[p], s.events[i]
		i = p
	}
}

func (s *sim) pop() event {
	top := s.events[0]
	last := len(s.events) - 1
	s.events[0] = s.events[last]
	s.events = s.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s.events) && eventLess(s.events[l], s.events[m]) {
			m = l
		}
		if r < len(s.events) && eventLess(s.events[r], s.events[m]) {
			m = r
		}
		if m == i {
			break
		}
		s.events[i], s.events[m] = s.events[m], s.events[i]
		i = m
	}
	return top
}

// Simulate plays an ascending arrival-time vector through the fleet and
// returns the report. Exposed separately from Run so tests and harnesses
// can inject their own arrival vectors. A fleet carries one run: its
// queues, scratchpads and counters are the run's state, so a second
// call is an error.
func (f *Fleet) Simulate(arrivals []float64) (*Report, error) {
	if f.used {
		return nil, fmt.Errorf("serve: Fleet.Simulate called twice; build a new Fleet for every run")
	}
	f.used = true
	s := f.newSim(len(arrivals))
	i := 0
	for i < len(arrivals) || len(s.events) > 0 {
		if len(s.events) > 0 && (i >= len(arrivals) || s.events[0].t <= arrivals[i]) {
			e := s.pop()
			var err error
			switch e.kind {
			case evKill:
				s.kill(e.w, e.t)
			case evHeal:
				err = s.heal(e.w)
			case evBatch:
				err = s.fireBatch(e.w, e.t)
			case evRetry:
				err = s.fireRetry(e.q, e.t)
			case evHedge:
				err = s.fireHedge(e.q, e.t)
			}
			if err != nil {
				return nil, err
			}
			if e.q != nil {
				s.release(e.q)
			}
			continue
		}
		at := arrivals[i]
		i++
		q := s.acquire(at)
		if err := s.dispatch(q, at, modeFirst); err != nil {
			return nil, err
		}
		// Arm the hedge timer once the primary attempt is in flight.
		if f.cfg.Hedge > 0 && f.cfg.Replicas > 1 && !q.resolved && len(q.tried) > 0 {
			ht := at + f.cfg.Hedge
			if f.cfg.Deadline == 0 || ht < at+f.cfg.Deadline {
				s.push(event{t: ht, kind: evHedge, q: q})
			}
		}
		s.release(q)
	}
	return s.finish(arrivals)
}

// newSim builds the run state for a vector of offered arrivals: the
// report shell, the batch planning buffers, the admission threshold in
// queue slots, and the outage schedule's kill and heal events.
func (f *Fleet) newSim(offered int) *sim {
	s := &sim{
		f: f,
		rep: &Report{
			Router:   Policy(f.cfg.Router),
			Replicas: f.cfg.Replicas,
			Batch:    f.cfg.Batch.canonical(),
			Offered:  int64(offered),
		},
		totalIDs: f.cfg.NumTables * f.cfg.Lookups,
	}
	if f.cfg.Batch.Enabled() {
		s.batchIDs = make([][]int64, f.cfg.NumTables)
		for t := range s.batchIDs {
			s.batchIDs[t] = make([]int64, 0, f.cfg.Lookups*f.cfg.Batch.Cap)
		}
	}
	if f.cfg.Admission.Policy != AdmitAll {
		s.shedDepth = int(math.Ceil(f.cfg.Admission.Threshold * float64(f.cfg.QueueCap)))
		if s.shedDepth < 1 {
			s.shedDepth = 1
		}
		if s.shedDepth > f.cfg.QueueCap {
			s.shedDepth = f.cfg.QueueCap
		}
	}
	for _, wk := range f.workers {
		for _, sp := range wk.downs {
			s.push(event{t: sp.from, kind: evKill, w: wk.id})
			if !math.IsInf(sp.to, 1) {
				s.push(event{t: sp.to, kind: evHeal, w: wk.id})
			}
		}
	}
	return s
}

// acquire starts the lifecycle of the query arriving at time at: a
// recycled (or, while the pool is still growing, new) query with the
// next request of the stream drawn into its buffers, referenced once by
// the arrival being handled.
func (s *sim) acquire(at float64) *query {
	var q *query
	if n := len(s.free); n > 0 {
		q, s.free = s.free[n-1], s.free[:n-1]
	} else {
		q = s.f.newQuery()
	}
	q.at, q.bestDone, q.winner, q.winnerDeg = at, math.Inf(1), -1, false
	q.tried, q.retries, q.resolved, q.refs = q.tried[:0], 0, false, 1
	s.f.nextRequest(q)
	return q
}

// release drops one reference to q. With the last one gone no attempt
// of the query can start or fail any more, so its fate is final: it is
// classified into the report (conservation-exact: every query retires
// exactly once) and its buffers return to the pool. Latency samples are
// sorted before they are digested, so the order queries retire in moves
// no reported number.
func (s *sim) release(q *query) {
	if q.refs--; q.refs > 0 {
		return
	}
	s.free = append(s.free, q)
	if q.resolved {
		return // already counted as Shed or Drops
	}
	if math.IsInf(q.bestDone, 1) {
		s.rep.TimedOut++
		return
	}
	s.rep.Served++
	s.f.workers[q.winner].served++
	l := q.bestDone - q.at
	if q.winnerDeg {
		s.degLat.Add(l)
	} else {
		s.lat.Add(l)
	}
	if d := s.f.cfg.Deadline; d == 0 || l <= d {
		s.good++
	}
	if q.bestDone > s.maxDone {
		s.maxDone = q.bestDone
	}
}

// linkHop prices the frontend-to-worker hop — queries routed off node 0
// pay the crossed link both ways (IDs up, score back) — and books the
// routing-link counters.
func (s *sim) linkHop(wk *worker) (linkUp, linkDown float64) {
	f := s.f
	if f.cfg.Topology != nil && wk.node != 0 {
		link := f.cfg.Topology.Link(0, wk.node)
		linkUp = link.TransferTime(idBytes(s.totalIDs))
		linkDown = link.TransferTime(respBytes)
		s.rep.CrossNode++
		if wk.host != f.cfg.Topology.Nodes[0].Host {
			s.rep.CrossHost++
		}
		s.rep.LinkTime += linkUp + linkDown
	}
	return
}

// settle resolves an enqueued attempt's fate eagerly: if its completion
// beats the worker's next scheduled kill it delivers (first response
// wins), otherwise the attempt is doomed and fails when the kill
// flushes the queue. degraded marks a CPU-fallback attempt, so a win
// reports its latency in the degraded percentile block.
func (s *sim) settle(q *query, wk *worker, t, done, linkDown float64, degraded bool) {
	if done <= wk.nextKill(t) {
		resp := done + linkDown
		if resp < q.bestDone {
			q.bestDone = resp
			q.winner = wk.id
			q.winnerDeg = degraded
		}
	} else {
		wk.doomed = append(wk.doomed, q)
		q.refs++
	}
}

// dispatch routes one attempt of q at time t. modeFirst runs the
// admission controller and finalizes drops; modeRetry treats a full
// queue or an empty fleet as another failed attempt; modeHedge gives up
// silently (the primary is still in flight).
func (s *sim) dispatch(q *query, t float64, mode dispatchMode) error {
	f := s.f
	w := f.router.choose(q.keys, f.workers, t, q.tried)
	if w < 0 && mode == modeRetry && len(q.tried) > 0 {
		// Every untried replica is down; a desperate retry goes back to
		// any live one.
		w = f.router.choose(q.keys, f.workers, t, nil)
	}
	if w < 0 {
		if mode != modeHedge {
			s.attemptFailed(q, t)
		}
		return nil
	}
	wk := f.workers[w]
	d := wk.depth(t)
	adm := f.cfg.Admission
	if mode == modeFirst && adm.Policy != AdmitAll && d >= s.shedDepth {
		reject := true
		if adm.Policy == AdmitCheapest {
			// Cheapest-first: reject the cache-warm arrival (its rows
			// stay resident; losing it costs least), admit the
			// miss-heavy one.
			est := f.router.estOverlap(w, q.keys)
			reject = est*2 >= len(q.keys)
		}
		if reject {
			if adm.Degrade {
				s.degradedDispatch(q, wk, t)
				return nil
			}
			q.resolved = true
			s.rep.Shed++
			return nil
		}
	}
	if d >= f.cfg.QueueCap {
		if adm.Degrade {
			s.degradedDispatch(q, wk, t)
			return nil
		}
		switch mode {
		case modeFirst:
			wk.drops++
			s.rep.Drops++
			q.resolved = true
		case modeRetry:
			q.tried = append(q.tried, w)
			s.attemptFailed(q, t)
		case modeHedge:
			// The hedge found no room; the primary attempt stands.
		}
		return nil
	}
	return s.enqueue(q, wk, t, d)
}

// bookPlan adds one plan's row movements and coordination latency to
// the report and, while wk is re-warming after a heal, to its re-warm
// bill.
func (s *sim) bookPlan(wk *worker, fills, evicts int, coord float64) {
	s.rep.Fills += int64(fills)
	s.rep.Evictions += int64(evicts)
	s.rep.CoordTime += coord
	if wk.rewarm {
		wk.rewarmFills += int64(fills)
		wk.rewarmTime += s.f.fillDetour(fills)
		if wk.residentRows() >= wk.rewarmTarget {
			wk.rewarm = false
		}
	}
}

// enqueue parks one attempt of q in wk's queue, whose depth was d: the
// routing link is paid now (the IDs travel to the replica at dispatch),
// and the router's view learns the keys now that the replica took the
// query (a bounced or shed query never reached its scratchpad). The
// scratchpad is planned at launch: at once when batching is off, where
// every query is a batch of one, or when the batch launch event fires.
func (s *sim) enqueue(q *query, wk *worker, t float64, d int) error {
	linkUp, linkDown := s.linkHop(wk)
	s.f.router.note(wk.id, q.keys)
	q.tried = append(q.tried, wk.id)
	wk.pending = append(wk.pending, pendingReq{q: q, enq: t + linkUp, linkDown: linkDown})
	q.refs++
	wk.peakDepth = max(wk.peakDepth, d+1)
	if !s.f.cfg.Batch.Enabled() {
		return s.launchBatch(wk, t)
	}
	s.scheduleBatch(wk, t)
	return nil
}

// batchReady returns the earliest time wk's head batch may launch,
// ignoring the busy horizon: the moment the cap-th member is aboard, or
// the first member's enqueue plus the hold delay for an undersized
// batch.
func (s *sim) batchReady(wk *worker, now float64) float64 {
	capN := s.f.cfg.Batch.Cap
	if len(wk.pending) >= capN {
		ready := now
		for _, p := range wk.pending[:capN] {
			if p.enq > ready {
				ready = p.enq
			}
		}
		return ready
	}
	return wk.pending[0].enq + s.f.cfg.Batch.Delay
}

// scheduleBatch (re)arms wk's batch-launch event at the earliest launch
// time consistent with the batching rule and the busy horizon. Events
// are never retracted: a stale earlier event re-evaluates and re-arms,
// a later one is subsumed by the earlier arming.
func (s *sim) scheduleBatch(wk *worker, now float64) {
	if wk.down || len(wk.pending) == 0 {
		return
	}
	if at := max(s.batchReady(wk, now), wk.busyUntil, now); at < wk.batchPlanned {
		wk.batchPlanned = at
		s.push(event{t: at, kind: evBatch, w: wk.id})
	}
}

// fireBatch handles a batch-launch event on worker w: launch if the
// batch is ready and the worker free, then re-arm for whatever is still
// pending — an unready batch, members beyond the cap, or members
// enqueued mid-decision — behind the busy horizon.
func (s *sim) fireBatch(w int, t float64) error {
	wk := s.f.workers[w]
	if t >= wk.batchPlanned {
		wk.batchPlanned = math.Inf(1)
	}
	if wk.down || len(wk.pending) == 0 {
		return nil
	}
	if max(s.batchReady(wk, t), wk.busyUntil) <= t {
		if err := s.launchBatch(wk, t); err != nil {
			return err
		}
	}
	s.scheduleBatch(wk, t)
	return nil
}

// launchBatch services wk's head batch at time t: up to max(Cap, 1)
// members whose IDs have arrived are planned through the scratchpad as
// one deduplicated batch (one Plan per table over the concatenated IDs;
// a lone member plans its own) and priced by ServiceTime; every member
// completes at the batch's end and settles against the kill schedule —
// a kill mid-batch dooms the whole batch to client-visible failures.
// A launch starts at the latest of t, the busy horizon and the head
// member's enqueue; the last matters only for a solo launch, since a
// batch event never fires before its head member's enqueue.
func (s *sim) launchBatch(wk *worker, t float64) error {
	f := s.f
	start := max(t, wk.busyUntil, wk.pending[0].enq)
	capN := max(f.cfg.Batch.Cap, 1)
	n := 0
	for n < len(wk.pending) && n < capN && wk.pending[n].enq <= start {
		n++
	}
	members := wk.pending[:n]
	ids := members[0].q.ids
	if n > 1 {
		for tbl := range s.batchIDs {
			s.batchIDs[tbl] = s.batchIDs[tbl][:0]
			for _, p := range members {
				s.batchIDs[tbl] = append(s.batchIDs[tbl], p.q.ids[tbl]...)
			}
		}
		ids = s.batchIDs
	}
	fills, evicts, unique, coord, err := wk.plan(ids)
	if err != nil {
		return err
	}
	f.maybePublish(wk, t)
	total := n * s.totalIDs
	probes := unique
	if !f.cfg.Batch.Enabled() {
		// A solo query probes every occurrence (DESIGN.md §14).
		probes = total
	}
	done := start + f.ServiceTime(fills, probes, total, n, coord)
	wk.busyUntil = done
	for range members {
		wk.comp = append(wk.comp, done)
	}
	s.bookPlan(wk, fills, evicts, coord)
	if f.cfg.Batch.Enabled() {
		wk.batches++
		wk.batchedQueries += int64(n)
		wk.maxBatch = max(wk.maxBatch, n)
	}
	for _, p := range members {
		s.settle(p.q, wk, t, done, p.linkDown, false)
		s.release(p.q)
	}
	wk.pending = append(wk.pending[:0], wk.pending[n:]...)
	return nil
}

// degradedDispatch answers q on wk's CPU fallback path: the host CPU is
// a second server next to the GPU worker (own completion horizon, no
// queue cap — admission already gated entry), so degraded-mode service
// rides out a full GPU queue instead of dropping. The scratchpad is
// untouched: no plan, no fills, no hit/miss accounting, and the
// router's view learns nothing.
func (s *sim) degradedDispatch(q *query, wk *worker, t float64) {
	linkUp, linkDown := s.linkHop(wk)
	svc := s.f.DegradedServiceTime(s.totalIDs)
	enq := t + linkUp
	start := enq
	if wk.cpuBusyUntil > start {
		start = wk.cpuBusyUntil
	}
	done := start + svc
	wk.cpuBusyUntil = done
	wk.degraded++
	s.rep.Degraded++
	q.tried = append(q.tried, wk.id)
	s.settle(q, wk, t, done, linkDown, true)
}

// attemptFailed reacts to a lost attempt at time t: when the query has
// no response (delivered or pending from another outstanding attempt)
// and retry budget remains inside the deadline, the next retry is
// scheduled with exponential backoff. Queries that exhaust the budget
// finalize as TimedOut.
func (s *sim) attemptFailed(q *query, t float64) {
	if q.resolved || !math.IsInf(q.bestDone, 1) {
		return
	}
	r := s.f.cfg.Retry
	if q.retries >= r.Max {
		return
	}
	q.retries++
	delay := r.Backoff * float64(int64(1)<<(q.retries-1))
	rt := t + delay
	if d := s.f.cfg.Deadline; d > 0 && rt >= q.at+d {
		return
	}
	s.push(event{t: rt, kind: evRetry, q: q})
}

// fireRetry redispatches q unless a response already arrived.
func (s *sim) fireRetry(q *query, t float64) error {
	if q.resolved || q.bestDone <= t {
		return nil
	}
	s.rep.Retried++
	return s.dispatch(q, t, modeRetry)
}

// fireHedge duplicates q to the next-best untried replica unless a
// response already arrived. First response wins; the loser's work stays
// billed on whichever queue it occupies.
func (s *sim) fireHedge(q *query, t float64) error {
	if q.resolved || q.bestDone <= t {
		return nil
	}
	n := len(q.tried)
	err := s.dispatch(q, t, modeHedge)
	if len(q.tried) > n {
		s.rep.Hedged++
	}
	return err
}

// kill takes worker w down at time t: the queue (GPU and CPU side) is
// flushed, every in-flight attempt fails back to the client, the
// scratchpad generation's statistics are banked and its state
// discarded, and the router's view of the replica is invalidated.
func (s *sim) kill(w int, t float64) {
	f := s.f
	wk := f.workers[w]
	wk.down = true
	wk.depth(t) // retire completions delivered before the strike
	wk.comp = wk.comp[:0]
	wk.head = 0
	wk.busyUntil = t
	wk.cpuBusyUntil = t
	wk.rewarmTarget = wk.residentRows()
	wk.rewarm = false
	for _, mgr := range wk.mgrs {
		st := mgr.Stats()
		wk.accHits += st.Hits
		wk.accMisses += st.Misses
		cs := mgr.CoordStats()
		wk.accRounds += cs.Messages
		wk.accWall += cs.WallSeconds + cs.WallHiddenSeconds
	}
	wk.parked, wk.mgrs = wk.mgrs, nil
	f.router.invalidate(w)
	for _, q := range wk.doomed {
		s.attemptFailed(q, t)
		s.release(q)
	}
	wk.doomed = wk.doomed[:0]
	// A kill mid-batch flushes the whole batch: members still waiting
	// for a launch fail back to the client exactly like the doomed
	// in-flight attempts above (retries and hedges re-enter the batcher
	// on another replica).
	for _, p := range wk.pending {
		s.attemptFailed(p.q, t)
		s.release(p.q)
	}
	wk.pending = wk.pending[:0]
	wk.batchPlanned = math.Inf(1)
}

// heal brings worker w back with a cold scratchpad: the rebuilt cache
// re-warms through ordinary misses, tracked (and priced) as
// RewarmFills/RewarmTime until residency is back to its pre-kill level.
func (s *sim) heal(w int) error {
	wk := s.f.workers[w]
	wk.down = false
	if err := s.f.buildScratchpads(wk); err != nil {
		return err
	}
	wk.rewarm = wk.rewarmTarget > 0
	return nil
}

// finish assembles the report once every query has retired: the
// throughput, goodput and latency digests, the per-worker breakdown, and
// the availability figure.
func (s *sim) finish(arrivals []float64) (*Report, error) {
	f, rep := s.f, s.rep
	rep.Duration = s.maxDone
	if rep.Duration > 0 {
		rep.Throughput = float64(rep.Served) / rep.Duration
		rep.Goodput = float64(s.good) / rep.Duration
	}
	if n := len(arrivals); n > 0 && arrivals[n-1] > 0 {
		rep.OfferedRate = float64(rep.Offered) / arrivals[n-1]
	}
	rep.Latency = s.lat.Summarize()
	rep.DegradedLatency = s.degLat.Summarize()
	var downSum float64
	for _, wk := range f.workers {
		h, m := wk.accHits, wk.accMisses
		rep.CoordRounds += wk.accRounds
		rep.CoordWallTime += wk.accWall
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
		rep.RewarmFills += wk.rewarmFills
		rep.RewarmTime += wk.rewarmTime
		rep.Batches += wk.batches
		rep.BatchedQueries += wk.batchedQueries
		if wk.maxBatch > rep.MaxBatch {
			rep.MaxBatch = wk.maxBatch
		}
		var down float64
		for _, sp := range wk.downs {
			if sp.from >= rep.Duration {
				break
			}
			to := sp.to
			if to > rep.Duration {
				to = rep.Duration
			}
			down += to - sp.from
		}
		downSum += down
		rep.Workers = append(rep.Workers, WorkerReport{
			Node: wk.node, Host: wk.host,
			Served: wk.served, Drops: wk.drops,
			Hits: h, Misses: m,
			PeakDepth: wk.peakDepth,
			Downtime:  down,
			Degraded:  wk.degraded,
			Batches:   wk.batches,
		})
	}
	rep.Availability = 1
	if rep.Duration > 0 && f.cfg.Replicas > 0 {
		rep.Availability = 1 - downSum/(float64(f.cfg.Replicas)*rep.Duration)
	}
	if err := rep.checkConservation(); err != nil {
		return nil, err
	}
	return rep, nil
}
