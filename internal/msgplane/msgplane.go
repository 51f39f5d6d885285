// Package msgplane prices one Plan's recorded coordination script two
// ways, so both figures read the same record.
//
// The coordination meter (internal/shard/coord.go) records every
// poll / confirm / slot-transfer / borrow / stamp-sync message the
// cross-shard eviction protocol exchanges as an Op script. This package
// turns that script into seconds on the hw.Topology links it crosses:
//
//   - Serial is the closed form the meter reports as CoordTime: the sum
//     over touched link pairs of rounds x latency + bytes / bandwidth,
//     as if one serial coordinator pass crossed every link in turn.
//   - Execute is a per-host FIFO queueing model of the same script,
//     reported as CoordWallTime: each op queues at its exec host behind
//     that host's earlier ops in the phase, may not be issued before
//     its peer's phase-entry clock, and lifts the peer's clock to its
//     completion at the phase barrier. The makespan is a max-plus
//     recurrence computed inline, so it is deterministic; links that
//     two exec hosts use in the same phase overlap, and every exact-mode
//     round funnelling through the coordinator serializes.
//
// Clocks are virtual seconds on the meter's scale. Local and down links
// are free in both prices (a partitioned link carries no message).
//
// The execution contract mirrors the overlapped coordinator: Execute
// takes two scripts, the speculative rounds that ran hidden under
// Collect and the critical rounds Plan had to pay for, and returns
// both the full makespan and the point where the hidden prefix ended,
// so callers can split the queueing wall into hidden and critical the
// same way the meter splits serial seconds.
package msgplane

import (
	"slices"

	"repro/internal/hw"
)

// Op is one recorded coordination message: a request issued by Peer
// that must be serviced by Exec (the endpoint the protocol serializes
// on — the global coordinator for exact-mode rounds, the per-host
// aggregator for hier fan-in). Bytes is the payload on the wire;
// Latency marks a full request/response round (pays the link's fixed
// latency) versus a piggybacked payload that rides an already-counted
// round. Phase is a monotone barrier index: ops in phase k+1 may not
// start before every op in phase k completed, matching the protocol's
// real dependencies (stamp sync before polls, polls before confirms,
// confirms before slot moves).
type Op struct {
	// Exec is the topology node that services the op.
	Exec int32
	// Peer is the other endpoint; the link crossed is (Exec, Peer).
	Peer int32
	// Bytes is the payload size charged to the link's bandwidth.
	Bytes float64
	// Latency marks a round (pays link latency) vs a payload rider.
	Latency bool
	// Phase orders the op against the plan's barrier structure.
	Phase int32
}

// Plane prices coordination scripts over one topology. One Plane
// serves one shard.Manager (single-threaded caller); its per-node and
// per-link scratch is preallocated and reused, so a warm Execute or
// Serial allocates nothing.
type Plane struct {
	topo *hw.Topology

	// Per-node virtual clocks: clock at phase entry, busy the exec
	// queue's running clock within the phase, lift the latest
	// completion of a request the node issued in the phase.
	clock []float64
	busy  []float64
	lift  []float64

	// Serial's per-link tallies, indexed by hw.Topology.PairIndex, and
	// the pairs in first-use order (one op per pair, for its endpoints).
	bytes   []float64
	rounds  []int64
	touched []Op
}

// New builds a Plane over topo: a Reset of a zero Plane. Returns nil for
// a nil topology — co-located managers have no links to price,
// mirroring the meter.
func New(topo *hw.Topology) *Plane {
	if topo == nil {
		return nil
	}
	p := &Plane{}
	p.Reset(topo)
	return p
}

// Reset re-targets an idle plane at topo (non-nil), leaving it in the
// state New(topo) builds. Its arrays are reused when they are already
// large enough, so resetting onto a topology of the same size
// allocates nothing.
func (p *Plane) Reset(topo *hw.Topology) {
	n := topo.NumNodes()
	p.topo = topo
	p.clock = slices.Grow(p.clock[:0], n)[:n]
	p.busy = slices.Grow(p.busy[:0], n)[:n]
	p.lift = slices.Grow(p.lift[:0], n)[:n]
	pairs := topo.NumLinkPairs()
	p.bytes = slices.Grow(p.bytes[:0], pairs)[:pairs]
	clear(p.bytes)
	p.rounds = slices.Grow(p.rounds[:0], pairs)[:pairs]
	clear(p.rounds)
	p.touched = p.touched[:0]
}

// link returns the link an op crosses and whether it costs anything:
// co-located endpoints (a TierLocal link) and partitioned links are
// free.
func (p *Plane) link(op Op) (hw.Link, bool) {
	l := p.topo.Link(int(op.Exec), int(op.Peer))
	return l, l.Tier != hw.TierLocal && !l.Down
}

// delay returns the virtual delivery cost of one op on its link: the
// link latency (rounds only) plus serialization, zero on a free link.
func (p *Plane) delay(op Op) float64 {
	l, priced := p.link(op)
	if !priced {
		return 0
	}
	d := op.Bytes / l.Bandwidth
	if op.Latency {
		d += l.Latency
	}
	return d
}

// Serial prices a script as one serial coordinator pass: the sum over
// the link pairs it touches of rounds x latency + bytes / bandwidth.
// Per-pair tallies are summed in first-use order, so the result is
// reproducible to the bit. Rider ops (Latency false) add bytes only.
func (p *Plane) Serial(ops []Op) float64 {
	if p == nil {
		return 0
	}
	for _, op := range ops {
		if op.Exec == op.Peer {
			continue
		}
		i := p.topo.PairIndex(int(op.Exec), int(op.Peer))
		if p.rounds[i] == 0 && p.bytes[i] == 0 {
			p.touched = append(p.touched, op)
		}
		p.bytes[i] += op.Bytes
		if op.Latency {
			p.rounds[i]++
		}
	}
	var t float64
	for _, op := range p.touched {
		i := p.topo.PairIndex(int(op.Exec), int(op.Peer))
		// A down link prices at zero like a local one: the rounds stay
		// counted by the meter (the protocol sent them; they queue),
		// but no message crosses a partition.
		if l, priced := p.link(op); priced {
			t += float64(p.rounds[i])*l.Latency + p.bytes[i]/l.Bandwidth
		}
		p.bytes[i] = 0
		p.rounds[i] = 0
	}
	p.touched = p.touched[:0]
	return t
}

// Execute runs one plan's coordination scripts through the per-host
// FIFO queueing model and returns the full virtual makespan plus the
// completion time of the overlapped prefix. overlapped holds the
// rounds the speculative coordinator ran hidden under the previous
// Collect; critical holds the rounds Plan paid for on its own clock.
// Either may be empty. Critical wall is total - overlapEnd; the hidden
// share is overlapEnd. Ops within each script must be sorted by Phase
// (the recorder emits them that way).
func (p *Plane) Execute(overlapped, critical []Op) (total, overlapEnd float64) {
	if p == nil {
		return 0, 0
	}
	clear(p.clock)
	var completion float64
	p.run(overlapped, &completion)
	overlapEnd = completion
	// Critical rounds cannot start before Plan does, which is the
	// barrier the speculative prefix ends on: lift every host to it.
	for i := range p.clock {
		if p.clock[i] < overlapEnd {
			p.clock[i] = overlapEnd
		}
	}
	p.run(critical, &completion)
	return completion, overlapEnd
}

// run executes one script phase by phase.
func (p *Plane) run(ops []Op, completion *float64) {
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && ops[j].Phase == ops[i].Phase {
			j++
		}
		p.runPhase(ops[i:j], completion)
		i = j
	}
}

// runPhase queues one phase's ops in script order. Each op starts once
// its exec host is free and its peer has reached the phase, so its
// completion is max(clock[peer], busy[exec]) + delay; peers only see
// their completions at the barrier, where every clock advances to the
// later of its own queue and its requests.
func (p *Plane) runPhase(ops []Op, completion *float64) {
	copy(p.busy, p.clock)
	copy(p.lift, p.clock)
	for _, op := range ops {
		t := p.clock[op.Peer]
		if b := p.busy[op.Exec]; b > t {
			t = b
		}
		t += p.delay(op)
		p.busy[op.Exec] = t
		if p.lift[op.Peer] < t {
			p.lift[op.Peer] = t
		}
		if *completion < t {
			*completion = t
		}
	}
	for i, b := range p.busy {
		p.clock[i] = max(b, p.lift[i])
	}
}
