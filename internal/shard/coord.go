package shard

import (
	"slices"

	"repro/internal/hw"
	"repro/internal/msgplane"
)

// The cross-shard eviction-budget coordinator is free only while every
// shard lives in one socket's shared memory. Under a distributed
// placement (hw.Placement spanning several topology nodes) its three
// communication patterns become real messages on real links:
//
//   - touch-stamp sync: each Plan, the coordinator broadcasts the batch's
//     stamp base and collects every remote shard's touch count, keeping
//     the global recency timeline consistent (one round trip per remote
//     shard per Plan; aggregated per host in hier mode; eliminated
//     entirely in approx mode, whose quantized epochs are derived
//     locally from the batch stream).
//   - victim merge: the k-way LRU merge polls a shard for its next
//     evictable candidates (one candidate per round in exact mode, the
//     Plan's whole miss budget per round in hier/approx), confirms
//     chosen victims to their owners (per victim in exact mode, one
//     aggregated round per shard routed through the host tier at Plan
//     end otherwise), and transfers slot
//     ownership when the victim's shard is not the missing ID's shard
//     (per event in exact mode, one aggregated round per shard pair at
//     Plan end otherwise).
//   - free-slot borrowing: taking a never-used slot from another shard's
//     stripe is a request/grant round trip between the two shards in
//     every mode (the starved shard needs the grant before it can
//     continue).
//
// The meter only records: it counts those messages and their payload
// bytes into the lifetime CoordStats and appends each one to the Plan's
// message script (a []msgplane.Op). At Plan end internal/msgplane
// prices that one script twice (DESIGN.md §12): Serial as the sum over
// links of rounds x latency + bytes / bandwidth (the coordinator pass
// is serial, so link times add), reported as Seconds / CoordTime, and
// Execute as a per-host FIFO queueing model of the same script,
// reported as WallSeconds / CoordWallTime. The script's phase
// boundaries mark the protocol's real barriers: stamp sync before the
// sweep, the sweep before the Plan-end flush. Message sizes are
// control-plane metadata (slot + stamp + ID sized), not embedding
// payloads — row data still moves through the pipeline's Exchange
// stage. Co-located shards (same node, or any TierLocal link)
// contribute nothing, so a single-node placement reproduces the
// shared-memory coordinator bit-for-bit at zero cost.
//
// An overlapped Plan (spec.go) records its first poll round on a second
// script (hidden == true), priced separately as OverlapSeconds (hidden
// under the previous Collect) and queued as Execute's overlapped
// prefix. The lifetime counters are shared, so traffic is identical
// with overlap on or off.
const (
	// stampSyncBytes is one touch-stamp round trip: stamp base out,
	// touch count back.
	stampSyncBytes = 16
	// victimPollBytes is one exact-mode candidate poll: request out,
	// (slot, stamp) back.
	victimPollBytes = 24
	// victimConfirmBytes confirms a chosen victim to its owning shard
	// (exact mode).
	victimConfirmBytes = 16
	// slotMoveBytes transfers one slot's ownership between shards after
	// a cross-shard eviction.
	slotMoveBytes = 16
	// borrowBytes is one free-slot borrow: request out, slot grant back.
	borrowBytes = 16

	// Batched-protocol sizing (CoordHier/CoordApprox): a
	// batched message is one header plus per-entry payload — candidate
	// entries on polls (slot + stamp), victim slots on aggregated
	// confirms, per-shard touch counts on hier stamp syncs.
	batchHeaderBytes = 8
	candEntryBytes   = 12
	confirmSlotBytes = 8
	stampCountBytes  = 8
)

// pollPayload is the wire size of one batched candidate poll carrying
// got candidates (request header + reply entries).
func pollPayload(got int) float64 {
	return batchHeaderBytes + candEntryBytes*float64(got)
}

// CoordStats aggregates the coordinator's cross-node communication over
// a Manager's lifetime. All byte counts are control-message payloads
// that crossed a non-local link; co-located coordination is free and
// uncounted.
type CoordStats struct {
	// VictimMergeBytes is the victim-merge traffic: candidate polls,
	// victim confirmations, and cross-shard slot transfers.
	VictimMergeBytes float64
	// TouchStampBytes is the per-Plan stamp-clock synchronization.
	TouchStampBytes float64
	// BorrowBytes is the free-slot borrowing traffic.
	BorrowBytes float64
	// ReelectBytes is the aggregator re-election traffic after a fault
	// (see failure.go): votes plus the result announcement.
	ReelectBytes float64

	// Per-pattern message-round counts: every cross-node round trip is
	// tallied in exactly one of these, so mode comparisons can report
	// rounds saved per pattern (not just bytes). Messages is their sum.
	PollRounds      int64
	ConfirmRounds   int64
	SlotMoveRounds  int64
	StampSyncRounds int64
	BorrowRounds    int64
	ReelectRounds   int64

	// Messages counts all cross-node message round trips.
	Messages int64
	// Seconds is the total modeled link time charged to Plans —
	// critical and overlapped shares together, so its semantics do not
	// change when overlapped coordination is enabled.
	Seconds float64
	// OverlapSeconds is the share of Seconds overlapped Plans hid under
	// the previous Collect: their first poll rounds (zero when overlap
	// is off). The critical share Plans actually waited for is
	// Seconds - OverlapSeconds.
	OverlapSeconds float64
	// WallSeconds / WallHiddenSeconds price the same scripts with the
	// message plane's per-host FIFO queueing model: its virtual
	// makespan for the critical and overlapped scripts respectively
	// (msgplane; DESIGN.md §12). The serial-vs-queued skew benchgate
	// gates is |Seconds - (WallSeconds+WallHiddenSeconds)| / Seconds.
	WallSeconds       float64
	WallHiddenSeconds float64
}

// Bytes returns the total coordination payload.
func (s CoordStats) Bytes() float64 {
	return s.VictimMergeBytes + s.TouchStampBytes + s.BorrowBytes + s.ReelectBytes
}

// Merge adds another manager's lifetime traffic into s (the engines sum
// per-table coordinators into one report).
func (s *CoordStats) Merge(o CoordStats) {
	s.VictimMergeBytes += o.VictimMergeBytes
	s.TouchStampBytes += o.TouchStampBytes
	s.BorrowBytes += o.BorrowBytes
	s.ReelectBytes += o.ReelectBytes
	s.PollRounds += o.PollRounds
	s.ConfirmRounds += o.ConfirmRounds
	s.SlotMoveRounds += o.SlotMoveRounds
	s.StampSyncRounds += o.StampSyncRounds
	s.BorrowRounds += o.BorrowRounds
	s.ReelectRounds += o.ReelectRounds
	s.Messages += o.Messages
	s.Seconds += o.Seconds
	s.OverlapSeconds += o.OverlapSeconds
	s.WallSeconds += o.WallSeconds
	s.WallHiddenSeconds += o.WallHiddenSeconds
}

// coordMeter records one Plan's coordination traffic as message scripts
// for the placement's topology, speaking the protocol selected by its
// CoordMode. nil meter (co-located placement) costs nothing and is
// never consulted.
type coordMeter struct {
	place  hw.Placement
	mode   CoordMode
	nodeOf []int32 // shard -> topology node

	// coordNode anchors the serial coordinator: it runs on shard 0's
	// node, so exact polls and stamp syncs cross the links from that
	// node.
	coordNode int32

	// The hier/approx host tier: hostIdx maps each shard to a dense
	// host index, aggNode maps a dense host to its aggregator node (the
	// node of the host's lowest shard — the hop shards on that host pay
	// intra-host prices to reach), hostShards counts shards per host.
	hostIdx    []int32
	aggNode    []int32
	hostShards []int32

	// Per-sweep / per-Plan batching state: hostPolled marks hosts whose
	// winner batch already cost a cross-host round this sweep (later
	// shard refills on the host merge into it, paying bytes only);
	// planVictims counts victims consumed per shard this Plan (flushed
	// into aggregated confirm rounds at Plan end); hostVictims is the
	// per-host scratch of that flush; moveCount/moveDirty accumulate
	// cross-shard slot transfers per ordered shard pair this Plan.
	hostPolled  []bool
	planVictims []int32
	hostVictims []int32
	moveCount   []int64
	moveDirty   []int32

	// plane prices the recorded scripts at Plan end, serially and
	// through its queueing model. crit is the Plan's critical script,
	// phase its current barrier index: incrementing it closes a
	// barrier, so later ops queue only after every earlier op
	// completed. over is the overlapped script: while hidden is set (an
	// overlapped Plan's first poll round, spec.go) rounds record there,
	// all in phase 0.
	plane  *msgplane.Plane
	crit   []msgplane.Op
	over   []msgplane.Op
	phase  int32
	hidden bool

	// Most recent finishPlan split, read back by the Manager: lastCrit
	// is the serial critical share, lastWall the queueing makespan of
	// both scripts.
	lastCrit float64
	lastWall float64

	stats CoordStats
}

// reset builds the meter for (p, shards, mode) — empty scripts, zero
// statistics — in place of c, reusing c's scripts, per-shard and
// per-host arrays and its message plane when they are
// large enough. A nil c builds a fresh meter, so this is the only
// constructor. Returns nil, dropping c, when the placement cannot
// generate cross-node traffic.
func (c *coordMeter) reset(p hw.Placement, shards int, mode CoordMode) *coordMeter {
	if !p.Distributed() || shards < 2 {
		return nil
	}
	if c == nil {
		c = &coordMeter{}
	}
	old := *c
	*c = coordMeter{
		place:       p,
		mode:        mode,
		nodeOf:      slices.Grow(old.nodeOf[:0], shards)[:shards],
		hostIdx:     slices.Grow(old.hostIdx[:0], shards)[:shards],
		aggNode:     old.aggNode[:0],
		hostShards:  old.hostShards[:0],
		planVictims: zeroed(old.planVictims, shards),
		moveCount:   zeroed(old.moveCount, shards*shards),
		moveDirty:   old.moveDirty[:0],
		plane:       old.plane,
		crit:        old.crit[:0],
		over:        old.over[:0],
	}
	if c.plane == nil {
		c.plane = msgplane.New(p.Topo)
	} else {
		c.plane.Reset(p.Topo)
	}
	for j := range c.nodeOf {
		c.nodeOf[j] = int32(p.Node[j])
	}
	c.coordNode = c.nodeOf[0]
	// Dense host remap in ascending shard order: the first shard seen
	// on a host makes its node the host's aggregator.
	for j, node := range c.nodeOf {
		host := p.Topo.Nodes[node].Host
		idx := 0
		for idx < len(c.aggNode) && p.Topo.Nodes[c.aggNode[idx]].Host != host {
			idx++
		}
		if idx == len(c.aggNode) {
			c.aggNode = append(c.aggNode, node)
			c.hostShards = append(c.hostShards, 0)
		}
		c.hostIdx[j] = int32(idx)
		c.hostShards[idx]++
	}
	c.hostPolled = zeroed(old.hostPolled, len(c.aggNode))
	c.hostVictims = zeroed(old.hostVictims, len(c.aggNode))
	return c
}

// zeroed returns buf resized to n zero elements, reusing its capacity
// when it suffices.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// record appends one message between two nodes to the active script:
// the overlapped one, all in phase 0, during a hidden round, the
// critical one at the current phase otherwise.
func (c *coordMeter) record(a, b int32, payload float64, round bool) {
	op := msgplane.Op{Exec: a, Peer: b, Bytes: payload, Latency: round}
	if c.hidden {
		c.over = append(c.over, op)
		return
	}
	op.Phase = c.phase
	c.crit = append(c.crit, op)
}

// addRound records one message round of the given payload between two
// nodes, adding the payload to *bytes and the round to *rounds (fields
// of c.stats); same-node traffic is free.
func (c *coordMeter) addRound(a, b int32, payload float64, bytes *float64, rounds *int64) {
	if a == b {
		return
	}
	c.record(a, b, payload, true)
	c.stats.Messages++
	*rounds++
	*bytes += payload
}

// addPayload merges extra payload onto the link between two nodes
// without a new round (the bytes ride an already-counted batched
// message); same-node traffic is free.
func (c *coordMeter) addPayload(a, b int32, payload float64, bytes *float64) {
	if a == b {
		return
	}
	c.record(a, b, payload, false)
	*bytes += payload
}

// beginSweep resets the per-sweep host-batch state; the Manager calls it
// whenever the victim sweep (re-)arms. A critical arm closes the
// script's barrier. A hidden arm opens an overlapped Plan's first poll
// round on the overlapped script and leaves the critical phase where it
// is, as if the round had run before the Plan (spec.go); the Manager
// clears hidden once the round's polls are made.
func (c *coordMeter) beginSweep(hide bool) {
	clear(c.hostPolled)
	c.hidden = hide
	if !hide {
		c.phase++
	}
}

// meterPoll records one candidate-poll refill for shard j that returned
// got candidates.
func (c *coordMeter) meterPoll(j, got int) {
	if c.mode == CoordExact {
		c.addRound(c.coordNode, c.nodeOf[j], victimPollBytes, &c.stats.VictimMergeBytes, &c.stats.PollRounds)
		return
	}
	h := c.hostIdx[j]
	agg := c.aggNode[h]
	c.addRound(agg, c.nodeOf[j], pollPayload(got), &c.stats.VictimMergeBytes, &c.stats.PollRounds)
	if agg == c.coordNode {
		return
	}
	if !c.hostPolled[h] {
		// First refill from this host this sweep: the aggregator
		// forwards the host-level winner batch in one cross-host round.
		c.hostPolled[h] = true
		c.addRound(c.coordNode, agg, pollPayload(got), &c.stats.VictimMergeBytes, &c.stats.PollRounds)
	} else {
		// Later refills merge into the host batch already in flight:
		// extra candidates cost bytes, not rounds.
		c.addPayload(c.coordNode, agg, candEntryBytes*float64(got), &c.stats.VictimMergeBytes)
	}
}

// meterConfirm records that the merge consumed a victim owned by shard
// j: an immediate confirm round in exact mode, a Plan-end aggregated
// confirm otherwise.
func (c *coordMeter) meterConfirm(j int) {
	if c.mode == CoordExact {
		c.addRound(c.coordNode, c.nodeOf[j], victimConfirmBytes, &c.stats.VictimMergeBytes, &c.stats.ConfirmRounds)
		return
	}
	c.planVictims[j]++
}

// meterSlotMove records a victim slot changing owners from shard `from`
// to shard `to`: an immediate transfer round in exact mode, a Plan-end
// aggregated per-pair transfer otherwise.
func (c *coordMeter) meterSlotMove(from, to int) {
	if c.mode == CoordExact {
		c.addRound(c.nodeOf[from], c.nodeOf[to], slotMoveBytes, &c.stats.VictimMergeBytes, &c.stats.SlotMoveRounds)
		return
	}
	idx := int32(from*len(c.planVictims) + to)
	if c.moveCount[idx] == 0 {
		c.moveDirty = append(c.moveDirty, idx)
	}
	c.moveCount[idx]++
}

// meterBorrow records a free-slot borrow round between two shards
// (identical in every mode: the starved shard blocks on the grant).
func (c *coordMeter) meterBorrow(from, to int) {
	c.addRound(c.nodeOf[from], c.nodeOf[to], borrowBytes, &c.stats.BorrowBytes, &c.stats.BorrowRounds)
}

// meterStampSync records one Plan's touch-stamp synchronization: per
// remote shard in exact, aggregated through the host tier in hier, and
// nothing at all in approx (quantized epochs are derived locally from
// the batch stream every shard already receives).
func (c *coordMeter) meterStampSync() {
	switch c.mode {
	case CoordApprox:
		return
	case CoordExact:
		c.phase++
		for j := range c.nodeOf {
			c.addRound(c.coordNode, c.nodeOf[j], stampSyncBytes, &c.stats.TouchStampBytes, &c.stats.StampSyncRounds)
		}
	default: // CoordHier
		c.phase++
		for j := range c.nodeOf {
			c.addRound(c.aggNode[c.hostIdx[j]], c.nodeOf[j], stampSyncBytes, &c.stats.TouchStampBytes, &c.stats.StampSyncRounds)
		}
		// Host-level uploads depend on the shard-level collections: a
		// plane barrier separates the two tiers.
		c.phase++
		for h := range c.aggNode {
			c.addRound(c.coordNode, c.aggNode[h],
				batchHeaderBytes+stampCountBytes*float64(c.hostShards[h]),
				&c.stats.TouchStampBytes, &c.stats.StampSyncRounds)
		}
	}
}

// flushBatched emits the Plan-end aggregated rounds of hier and approx:
// one confirm round per host and one per shard that supplied victims
// (coordinator -> host aggregator -> shard), and one slot transfer round
// per dirty ordered shard pair.
func (c *coordMeter) flushBatched() {
	c.phase++
	for j, v := range c.planVictims {
		if v > 0 {
			c.hostVictims[c.hostIdx[j]] += v
		}
	}
	for h, v := range c.hostVictims {
		if v > 0 {
			c.addRound(c.coordNode, c.aggNode[h],
				batchHeaderBytes+confirmSlotBytes*float64(v),
				&c.stats.VictimMergeBytes, &c.stats.ConfirmRounds)
			c.hostVictims[h] = 0
		}
	}
	// Shard-level fan-out waits for the host-level batch: barrier.
	c.phase++
	for j, v := range c.planVictims {
		if v > 0 {
			c.addRound(c.aggNode[c.hostIdx[j]], c.nodeOf[j],
				batchHeaderBytes+confirmSlotBytes*float64(v),
				&c.stats.VictimMergeBytes, &c.stats.ConfirmRounds)
			c.planVictims[j] = 0
		}
	}
	n := len(c.planVictims)
	for _, idx := range c.moveDirty {
		from, to := int(idx)/n, int(idx)%n
		c.addRound(c.nodeOf[from], c.nodeOf[to],
			slotMoveBytes*float64(c.moveCount[idx]),
			&c.stats.VictimMergeBytes, &c.stats.SlotMoveRounds)
		c.moveCount[idx] = 0
	}
	c.moveDirty = c.moveDirty[:0]
}

// finishPlan prices the Plan's two scripts on the plane, serially and
// through the queueing model, folds everything into the lifetime stats, resets the per-Plan
// state, and returns the Plan's total coordination latency in seconds
// (critical + overlapped share — the same quantity the pre-overlap meter
// returned, so reported CoordTime semantics are unchanged). The critical
// share and the queueing makespan are parked in lastCrit / lastWall for
// the Manager.
func (c *coordMeter) finishPlan() float64 {
	if c.mode != CoordExact {
		c.flushBatched()
	}
	tCrit := c.plane.Serial(c.crit)
	tOver := c.plane.Serial(c.over)
	total, oend := c.plane.Execute(c.over, c.crit)
	c.lastCrit = tCrit
	c.lastWall = total
	c.stats.Seconds += tCrit + tOver
	c.stats.OverlapSeconds += tOver
	c.stats.WallSeconds += total - oend
	c.stats.WallHiddenSeconds += oend
	c.crit = c.crit[:0]
	c.over = c.over[:0]
	c.phase = 0
	return tCrit + tOver
}
