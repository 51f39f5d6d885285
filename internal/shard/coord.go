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
//     Plan's whole miss budget per round in batched/hier/approx),
//     confirms chosen victims to their owners (per victim in exact
//     mode, one aggregated round per shard — routed through the host
//     tier in hier/approx — at Plan end otherwise), and transfers slot
//     ownership when the victim's shard is not the missing ID's shard
//     (per event in exact mode, one aggregated round per shard pair at
//     Plan end otherwise).
//   - free-slot borrowing: taking a never-used slot from another shard's
//     stripe is a request/grant round trip between the two shards in
//     every mode (the starved shard needs the grant before it can
//     continue).
//
// The meter counts those messages and their payload bytes per link pair
// within one Plan, then prices the Plan's coordination latency as the
// sum over links of rounds x latency + bytes / bandwidth (the
// coordinator pass is serial, so link times add). Message sizes are
// control-plane metadata (slot + stamp + ID sized), not embedding
// payloads — row data still moves through the pipeline's Exchange stage.
// Co-located shards (same node, or any TierLocal link) contribute
// nothing, so a single-node placement reproduces the shared-memory
// coordinator bit-for-bit at zero cost.
//
// Since PR 8 the meter does two more things (DESIGN.md §12):
//
//   - Every recorded round is also appended to a message script and
//     replayed through internal/msgplane's goroutine hosts at Plan end,
//     yielding a *measured* wall-clock twin (CoordStats.WallSeconds /
//     WallHiddenSeconds) of the modeled Seconds. The script's phase
//     boundaries mark the protocol's real barriers: stamp sync before
//     the sweep, the sweep before the Plan-end flush.
//   - Speculative coordination (spec.go) stages its rounds on a side
//     ledger (staging == true): the same addRound paths write into the
//     spec arrays/script instead of the Plan's. On adoption the staged
//     traffic is priced separately as OverlapSeconds (hidden under the
//     previous Collect) and its counters merge into the lifetime stats;
//     on rollback the ledger is discarded wholesale, leaving the
//     lifetime stats bit-identical to a run that never speculated.
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

	// Batched-protocol sizing (CoordBatched/CoordHier/CoordApprox): a
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

// byteBucket / roundBucket name the CoordStats field a message tallies
// into; addRound resolves them against the live or staging stats, so
// the speculative path reuses the exact recording code.
type byteBucket uint8

const (
	bktVictim byteBucket = iota
	bktStamp
	bktBorrow
	bktReelect
)

type roundBucket uint8

const (
	rndPoll roundBucket = iota
	rndConfirm
	rndSlotMove
	rndStampSync
	rndBorrow
	rndReelect
)

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
	// OverlapSeconds is the share of Seconds that speculation hid under
	// the previous Collect (zero when overlap is off or nothing was
	// adopted). The critical share a Plan actually waited for is
	// Seconds - OverlapSeconds.
	OverlapSeconds float64
	// WallSeconds / WallHiddenSeconds are the measured twins: the
	// message plane's virtual makespan for the critical and overlapped
	// scripts respectively (msgplane; DESIGN.md §12). The modeled-vs-
	// measured skew benchgate gates is
	// |Seconds - (WallSeconds+WallHiddenSeconds)| / Seconds.
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

// bytesBucket returns the payload accumulator a byteBucket names.
func (s *CoordStats) bytesBucket(b byteBucket) *float64 {
	switch b {
	case bktVictim:
		return &s.VictimMergeBytes
	case bktStamp:
		return &s.TouchStampBytes
	case bktBorrow:
		return &s.BorrowBytes
	default:
		return &s.ReelectBytes
	}
}

// roundsBucket returns the round counter a roundBucket names.
func (s *CoordStats) roundsBucket(r roundBucket) *int64 {
	switch r {
	case rndPoll:
		return &s.PollRounds
	case rndConfirm:
		return &s.ConfirmRounds
	case rndSlotMove:
		return &s.SlotMoveRounds
	case rndStampSync:
		return &s.StampSyncRounds
	case rndBorrow:
		return &s.BorrowRounds
	default:
		return &s.ReelectRounds
	}
}

// mergeCounters folds another ledger's message counts and payload bytes
// into s without touching the priced-seconds fields (the caller prices
// the adopted staging itself).
func (s *CoordStats) mergeCounters(o CoordStats) {
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
}

// coordMeter accumulates one Plan's coordination traffic per link pair
// and prices it against the placement's topology, speaking the protocol
// selected by its CoordMode. nil meter (co-located placement) costs
// nothing and is never consulted.
type coordMeter struct {
	place  hw.Placement
	mode   CoordMode
	nodeOf []int32 // shard -> topology node

	// coordNode anchors the serial coordinator: it runs on shard 0's
	// node, so exact/batched polls and stamp syncs cross the links from
	// that node.
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

	// bytes/rounds are the current Plan's per-link-pair traffic,
	// indexed by hw.Topology.PairIndex (the link matrix's own layout);
	// touched lists the dirty node pairs so the per-Plan reset and
	// pricing walk is proportional to traffic, not topology size.
	bytes   []float64
	rounds  []int64
	touched []linkUse

	// plane replays the recorded message script on goroutine hosts at
	// Plan end; ops is the Plan's critical script, phase its current
	// barrier index (see nextPhase).
	plane *msgplane.Plane
	ops   []msgplane.Op
	phase int32

	// Speculation side ledger (spec.go): while staging is set, addRound
	// and addPayload record into the spec arrays, script, and stats
	// instead of the Plan's. specAdopted marks the staged traffic
	// consumed by the current Plan: finishPlan then prices it as
	// OverlapSeconds and merges its counters; otherwise the ledger is
	// simply cleared.
	staging     bool
	specAdopted bool
	specBytes   []float64
	specRounds  []int64
	specTouched []linkUse
	specOps     []msgplane.Op
	specStats   CoordStats

	// Most recent finishPlan split, read back by the Manager:
	// lastCrit is the modeled critical share, lastWallCrit/lastWallFull
	// the measured critical share and full makespan.
	lastCrit     float64
	lastWallCrit float64
	lastWallFull float64

	stats CoordStats
}

// linkUse records one dirty link of the current Plan: the flattened
// pair index plus the node pair itself (so pricing needs no reverse
// lookup).
type linkUse struct {
	idx  int32
	a, b int32
}

// reset builds the meter for (p, shards, mode) — empty ledgers, empty
// scripts, zero statistics — in place of c, reusing c's per-link,
// per-shard and per-host arrays and its message plane when they are
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
	pairs := p.Topo.NumLinkPairs()
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
		bytes:       zeroed(old.bytes, pairs),
		rounds:      zeroed(old.rounds, pairs),
		touched:     old.touched[:0],
		plane:       old.plane,
		ops:         old.ops[:0],
		specTouched: old.specTouched[:0],
		specOps:     old.specOps[:0],
	}
	if old.specBytes != nil {
		c.specBytes = zeroed(old.specBytes, pairs)
		c.specRounds = zeroed(old.specRounds, pairs)
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

// side returns the active recording ledger: the Plan's own, or the
// speculation staging while it is open.
func (c *coordMeter) side() (st *CoordStats, bytes []float64, rounds []int64) {
	if c.staging {
		return &c.specStats, c.specBytes, c.specRounds
	}
	return &c.stats, c.bytes, c.rounds
}

// addRound records one message round of the given payload between two
// nodes, tallying the payload and round into the named buckets and
// appending the round to the active message script; same-node traffic
// is free.
func (c *coordMeter) addRound(a, b int32, payload float64, bb byteBucket, rb roundBucket) {
	if a == b {
		return
	}
	st, bytes, rounds := c.side()
	idx := c.dirty(a, b, bytes, rounds)
	bytes[idx] += payload
	rounds[idx]++
	st.Messages++
	*st.roundsBucket(rb)++
	*st.bytesBucket(bb) += payload
	c.record(msgplane.Op{Exec: a, Peer: b, Bytes: payload, Latency: true, Phase: c.opPhase()})
}

// addPayload merges extra payload onto the link between two nodes
// without a new round (the bytes ride an already-counted batched
// message); same-node traffic is free.
func (c *coordMeter) addPayload(a, b int32, payload float64, bb byteBucket) {
	if a == b {
		return
	}
	st, bytes, rounds := c.side()
	idx := c.dirty(a, b, bytes, rounds)
	bytes[idx] += payload
	*st.bytesBucket(bb) += payload
	c.record(msgplane.Op{Exec: a, Peer: b, Bytes: payload, Latency: false, Phase: c.opPhase()})
}

// record appends one op to the active message script.
func (c *coordMeter) record(op msgplane.Op) {
	if c.staging {
		c.specOps = append(c.specOps, op)
	} else {
		c.ops = append(c.ops, op)
	}
}

// opPhase returns the active script's barrier index: the staged
// speculative script is a single phase (its polls are independent), the
// Plan script advances through nextPhase.
func (c *coordMeter) opPhase() int32 {
	if c.staging {
		return 0
	}
	return c.phase
}

// nextPhase closes the Plan script's current barrier: subsequent ops
// may not start on the plane before every earlier op completed.
func (c *coordMeter) nextPhase() {
	if !c.staging {
		c.phase++
	}
}

// dirty returns the flattened pair index for (a, b), registering the
// pair in the active ledger's touched list on first use.
func (c *coordMeter) dirty(a, b int32, bytes []float64, rounds []int64) int32 {
	idx := int32(c.place.Topo.PairIndex(int(a), int(b)))
	if rounds[idx] == 0 && bytes[idx] == 0 {
		if c.staging {
			c.specTouched = append(c.specTouched, linkUse{idx: idx, a: a, b: b})
		} else {
			c.touched = append(c.touched, linkUse{idx: idx, a: a, b: b})
		}
	}
	return idx
}

// beginStaging opens the speculation side ledger: subsequent addRound /
// addPayload calls record into it. The per-sweep host-batch state is
// reset because the staged polls open the next Plan's sweep.
func (c *coordMeter) beginStaging() {
	if c.specBytes == nil {
		c.specBytes = make([]float64, c.place.Topo.NumLinkPairs())
		c.specRounds = make([]int64, c.place.Topo.NumLinkPairs())
	}
	c.staging = true
	c.beginSweep()
}

// endStaging closes the side ledger (the staged traffic stays parked
// until adoptStaging or discardStaging).
func (c *coordMeter) endStaging() { c.staging = false }

// adoptStaging marks the staged traffic consumed by the current Plan:
// finishPlan will price it as the Plan's overlapped share. The per-sweep
// hostPolled state staged by the speculative polls stays live, so later
// refills on an already-polled host keep merging into its batch.
func (c *coordMeter) adoptStaging() { c.specAdopted = true }

// discardStaging drops the staged traffic without pricing it (rollback:
// the re-polls are metered critically by the Plan, so lifetime stats
// match a run that never speculated).
func (c *coordMeter) discardStaging() {
	for _, u := range c.specTouched {
		c.specBytes[u.idx] = 0
		c.specRounds[u.idx] = 0
	}
	c.specTouched = c.specTouched[:0]
	c.specOps = c.specOps[:0]
	c.specStats = CoordStats{}
	c.specAdopted = false
	c.staging = false
}

// beginSweep resets the per-sweep host-batch state; the Manager calls it
// whenever the victim sweep (re-)arms.
func (c *coordMeter) beginSweep() {
	for i := range c.hostPolled {
		c.hostPolled[i] = false
	}
	c.nextPhase()
}

// meterPoll records one candidate-poll refill for shard j that returned
// got candidates.
func (c *coordMeter) meterPoll(j, got int) {
	switch c.mode {
	case CoordExact:
		c.addRound(c.coordNode, c.nodeOf[j], victimPollBytes, bktVictim, rndPoll)
	case CoordBatched:
		c.addRound(c.coordNode, c.nodeOf[j], pollPayload(got), bktVictim, rndPoll)
	default: // CoordHier, CoordApprox
		h := c.hostIdx[j]
		agg := c.aggNode[h]
		c.addRound(agg, c.nodeOf[j], pollPayload(got), bktVictim, rndPoll)
		if agg == c.coordNode {
			return
		}
		if !c.hostPolled[h] {
			// First refill from this host this sweep: the aggregator
			// forwards the host-level winner batch in one cross-host
			// round.
			c.hostPolled[h] = true
			c.addRound(c.coordNode, agg, pollPayload(got), bktVictim, rndPoll)
		} else {
			// Later refills merge into the host batch already in
			// flight: extra candidates cost bytes, not rounds.
			c.addPayload(c.coordNode, agg, candEntryBytes*float64(got), bktVictim)
		}
	}
}

// meterConfirm records that the merge consumed a victim owned by shard
// j: an immediate confirm round in exact mode, a Plan-end aggregated
// confirm otherwise.
func (c *coordMeter) meterConfirm(j int) {
	if c.mode == CoordExact {
		c.addRound(c.coordNode, c.nodeOf[j], victimConfirmBytes, bktVictim, rndConfirm)
		return
	}
	c.planVictims[j]++
}

// meterSlotMove records a victim slot changing owners from shard `from`
// to shard `to`: an immediate transfer round in exact mode, a Plan-end
// aggregated per-pair transfer otherwise.
func (c *coordMeter) meterSlotMove(from, to int) {
	if c.mode == CoordExact {
		c.addRound(c.nodeOf[from], c.nodeOf[to], slotMoveBytes, bktVictim, rndSlotMove)
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
	c.addRound(c.nodeOf[from], c.nodeOf[to], borrowBytes, bktBorrow, rndBorrow)
}

// meterStampSync records one Plan's touch-stamp synchronization: per
// remote shard in exact/batched, aggregated through the host tier in
// hier, and nothing at all in approx (quantized epochs are derived
// locally from the batch stream every shard already receives).
func (c *coordMeter) meterStampSync() {
	switch c.mode {
	case CoordApprox:
		return
	case CoordExact, CoordBatched:
		c.nextPhase()
		for j := range c.nodeOf {
			c.addRound(c.coordNode, c.nodeOf[j], stampSyncBytes, bktStamp, rndStampSync)
		}
	default: // CoordHier
		c.nextPhase()
		for j := range c.nodeOf {
			c.addRound(c.aggNode[c.hostIdx[j]], c.nodeOf[j], stampSyncBytes, bktStamp, rndStampSync)
		}
		// Host-level uploads depend on the shard-level collections: a
		// plane barrier separates the two tiers.
		c.nextPhase()
		for h := range c.aggNode {
			c.addRound(c.coordNode, c.aggNode[h],
				batchHeaderBytes+stampCountBytes*float64(c.hostShards[h]),
				bktStamp, rndStampSync)
		}
	}
}

// flushBatched emits the Plan-end aggregated rounds of the batched
// protocols: one confirm round per shard that supplied victims (routed
// coordinator -> host aggregator -> shard in hier/approx) and one slot
// transfer round per dirty ordered shard pair.
func (c *coordMeter) flushBatched() {
	c.nextPhase()
	if c.mode == CoordHier || c.mode == CoordApprox {
		for j, v := range c.planVictims {
			if v > 0 {
				c.hostVictims[c.hostIdx[j]] += v
			}
		}
		for h, v := range c.hostVictims {
			if v > 0 {
				c.addRound(c.coordNode, c.aggNode[h],
					batchHeaderBytes+confirmSlotBytes*float64(v),
					bktVictim, rndConfirm)
				c.hostVictims[h] = 0
			}
		}
		// Shard-level fan-out waits for the host-level batch: barrier.
		c.nextPhase()
		for j, v := range c.planVictims {
			if v > 0 {
				c.addRound(c.aggNode[c.hostIdx[j]], c.nodeOf[j],
					batchHeaderBytes+confirmSlotBytes*float64(v),
					bktVictim, rndConfirm)
				c.planVictims[j] = 0
			}
		}
	} else {
		for j, v := range c.planVictims {
			if v > 0 {
				c.addRound(c.coordNode, c.nodeOf[j],
					batchHeaderBytes+confirmSlotBytes*float64(v),
					bktVictim, rndConfirm)
				c.planVictims[j] = 0
			}
		}
	}
	n := len(c.planVictims)
	for _, idx := range c.moveDirty {
		from, to := int(idx)/n, int(idx)%n
		c.addRound(c.nodeOf[from], c.nodeOf[to],
			slotMoveBytes*float64(c.moveCount[idx]),
			bktVictim, rndSlotMove)
		c.moveCount[idx] = 0
	}
	c.moveDirty = c.moveDirty[:0]
}

// price sums the ledger's link times and zeroes its per-pair arrays;
// the caller truncates the touched list. The coordinator pass is
// serial, so the per-link times add.
func (c *coordMeter) price(touched []linkUse, bytes []float64, rounds []int64) float64 {
	var t float64
	for _, u := range touched {
		l := c.place.Topo.Link(int(u.a), int(u.b))
		// A down link prices at zero like a local one: no message
		// crosses a partition — the rounds stay counted (the protocol
		// sent them; they queue), and the stale state they failed to
		// deliver is what degraded-mode divergence measures.
		if l.Tier != hw.TierLocal && !l.Down {
			t += float64(rounds[u.idx])*l.Latency + bytes[u.idx]/l.Bandwidth
		}
		bytes[u.idx] = 0
		rounds[u.idx] = 0
	}
	return t
}

// finishPlan prices the Plan's accumulated traffic, replays its message
// script on the plane, folds everything into the lifetime stats, resets
// the per-Plan state, and returns the Plan's total coordination latency
// in seconds (critical + adopted overlapped share — the same quantity
// the pre-overlap meter returned, so reported CoordTime semantics are
// unchanged). The critical/overlapped split and the measured wall twins
// are parked in lastCrit / lastWallCrit / lastWallFull for the Manager.
func (c *coordMeter) finishPlan() float64 {
	if c.mode != CoordExact {
		c.flushBatched()
	}
	tCrit := c.price(c.touched, c.bytes, c.rounds)
	c.touched = c.touched[:0]
	var tOver float64
	var specScript []msgplane.Op
	if c.specAdopted {
		tOver = c.price(c.specTouched, c.specBytes, c.specRounds)
		c.specTouched = c.specTouched[:0]
		c.stats.mergeCounters(c.specStats)
		specScript = c.specOps
	}
	total, oend := c.plane.Execute(specScript, c.ops)
	c.lastCrit = tCrit
	c.lastWallCrit = total - oend
	c.lastWallFull = total
	c.stats.Seconds += tCrit + tOver
	c.stats.OverlapSeconds += tOver
	c.stats.WallSeconds += total - oend
	c.stats.WallHiddenSeconds += oend
	c.ops = c.ops[:0]
	c.phase = 0
	if c.specAdopted {
		c.discardStaging()
	}
	return tCrit + tOver
}
