// Package msgplane executes coordination message rounds on real
// goroutine "hosts" instead of summing them arithmetically.
//
// The coordination meter (internal/shard/coord.go) records every
// poll / confirm / slot-transfer / borrow / stamp-sync message the
// cross-shard eviction protocol exchanges and prices the total with
// closed-form link arithmetic. That model is cheap and deterministic,
// but it is only a model: nothing ever travels, so its predictions are
// unvalidated. This package is the measured twin. Each topology node
// that terminates coordination traffic becomes a goroutine host; the
// meter replays its recorded message stream through channels between
// those hosts, and delivery is delayed per the hw.Topology link each
// message crosses. The result is a wall-clock figure built by actual
// concurrent execution — serialization points emerge from goroutine
// scheduling and channel hand-off, not from a summation order the
// model assumed — which the bench layer reports as CoordWallTime and
// benchgate diffs against the modeled CoordTime (skew gate).
//
// Delivery clocks are virtual (seconds on the same scale the meter
// prices), advanced by the hosts as they drain their inboxes; the
// goroutines do not sleep out the link latencies. That keeps a plan's
// execution deterministic and cheap while preserving the property the
// model cannot give us: completion time is computed by the hosts
// racing each other through real channels, so any serialization the
// protocol has (every exact-mode round funnels through the
// coordinator; hier fans out per host) is exhibited, not asserted.
//
// The execution contract mirrors the overlapped coordinator: Execute
// takes two scripts, the speculative rounds that ran hidden under
// Collect and the critical rounds Plan had to pay for, and returns
// both the full makespan and the point where the hidden prefix ended,
// so callers can split measured wall into hidden and critical the
// same way the meter splits modeled seconds.
package msgplane

import (
	"slices"

	"repro/internal/hw"
)

// Op is one recorded coordination message: a request issued by Peer
// that must be serviced by the goroutine hosting Exec (the endpoint
// the protocol serializes on — the global coordinator for exact-mode
// rounds, the per-host aggregator for hier fan-in). Bytes is the
// payload on the wire; Latency marks a full request/response round
// (pays the link's fixed latency) versus a piggybacked payload that
// rides an already-counted round. Phase is a monotone barrier index:
// ops in phase k+1 may not start before every op in phase k completed,
// matching the protocol's real dependencies (stamp sync before polls,
// polls before confirms, confirms before slot moves).
type Op struct {
	// Exec is the topology node whose goroutine services the op.
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

// msg is an Op resolved for delivery: issue is the earliest virtual
// time the requester could have sent it, delay the link crossing cost,
// idx its position in the script (dones are written back there).
type msg struct {
	issue float64
	delay float64
	idx   int32
}

// hostIn is one phase's batched inbox for a single exec host: the
// host's messages in issue order plus its clock at phase entry.
type hostIn struct {
	msgs []msg
	base float64
}

// hostOut reports a host's clock after draining its phase inbox.
type hostOut struct {
	exec  int32
	clock float64
}

// Plane executes coordination scripts over goroutine hosts. One Plane
// serves one shard.Manager (single-threaded caller); all per-phase
// state is preallocated and reused, and each node's goroutine is
// launched through a closure built once, so Execute allocates nothing.
type Plane struct {
	topo  *hw.Topology
	clock []float64 // per-node virtual time

	// Per-node launch state, built once per node and kept across
	// Resets (so it may be longer than the current topology): the
	// persistent inboxes (never closed) and the closures that run one
	// phase of each node's host goroutine.
	inbox  []chan hostIn
	hostFn []func()

	// Per-phase scratch, reused across Execute calls.
	done   chan hostOut
	dones  []float64 // per-op completion times, indexed by Op idx
	msgbuf []msg     // counting-sorted per-exec message lists
	count  []int32   // per-node op count within the phase
	offset []int32   // per-node slice offsets into msgbuf
	active []int32   // distinct exec nodes in the phase
}

// New builds a Plane over topo: a Reset of a zero Plane. Returns nil for
// a nil topology — co-located managers have no links to measure,
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
// state New(topo) builds. Per-node arrays, inboxes and launch closures
// are reused when the plane already has enough of them, so resetting
// onto a topology of the same size allocates nothing.
func (p *Plane) Reset(topo *hw.Topology) {
	n := topo.NumNodes()
	p.topo = topo
	p.clock = slices.Grow(p.clock[:0], n)[:n]
	p.count = slices.Grow(p.count[:0], n)[:n]
	clear(p.count)
	p.offset = slices.Grow(p.offset[:0], n)[:n]
	p.active = slices.Grow(p.active[:0], n)
	for len(p.inbox) < n {
		e := int32(len(p.inbox))
		p.inbox = append(p.inbox, make(chan hostIn, 1))
		p.hostFn = append(p.hostFn, func() { p.host(e) })
	}
	if cap(p.done) < n {
		p.done = make(chan hostOut, n)
	}
}

// delay returns the virtual delivery cost of one op on its link: zero
// for co-located endpoints and partitioned links (the meter's pricing
// rule), otherwise the link latency (rounds only) plus serialization.
func (p *Plane) delay(op Op) float64 {
	if op.Exec == op.Peer {
		return 0
	}
	l := p.topo.Link(int(op.Exec), int(op.Peer))
	if l.Tier == hw.TierLocal || l.Down {
		return 0
	}
	d := op.Bytes / l.Bandwidth
	if op.Latency {
		d += l.Latency
	}
	return d
}

// Execute replays one plan's coordination scripts over the goroutine
// hosts and returns the full virtual makespan plus the completion time
// of the overlapped prefix. overlapped holds the rounds the
// speculative coordinator ran hidden under the previous Collect;
// critical holds the rounds Plan paid for on its own clock. Either may
// be empty. Measured critical wall is total - overlapEnd; the hidden
// share is overlapEnd. Ops within each script must be sorted by Phase
// (the recorder emits them that way).
func (p *Plane) Execute(overlapped, critical []Op) (total, overlapEnd float64) {
	if p == nil {
		return 0, 0
	}
	for i := range p.clock {
		p.clock[i] = 0
	}
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
		ph := ops[i].Phase
		for j < len(ops) && ops[j].Phase == ph {
			j++
		}
		p.runPhase(ops[i:j], completion)
		i = j
	}
}

// runPhase delivers one phase's ops: messages are bucketed per exec
// host (stable counting sort, preserving the protocol's issue order),
// each distinct host gets a goroutine that drains its inbox in virtual
// time, and the drivers folds the per-op completion times back into
// the peer clocks once every host reports in.
func (p *Plane) runPhase(ops []Op, completion *float64) {
	if len(ops) == 0 {
		return
	}
	p.active = p.active[:0]
	for _, op := range ops {
		if p.count[op.Exec] == 0 {
			p.active = append(p.active, op.Exec)
		}
		p.count[op.Exec]++
	}
	if cap(p.msgbuf) < len(ops) {
		p.msgbuf = make([]msg, len(ops))
	}
	p.msgbuf = p.msgbuf[:len(ops)]
	if cap(p.dones) < len(ops) {
		p.dones = make([]float64, len(ops))
	}
	p.dones = p.dones[:len(ops)]
	var off int32
	for _, e := range p.active {
		p.offset[e] = off
		off += p.count[e]
		p.count[e] = 0
	}
	for i, op := range ops {
		pos := p.offset[op.Exec] + p.count[op.Exec]
		p.count[op.Exec]++
		p.msgbuf[pos] = msg{issue: p.clock[op.Peer], delay: p.delay(op), idx: int32(i)}
	}
	// One goroutine per serving host, launched through its prebuilt
	// closure (a `go p.host(e)` would heap-allocate one per launch); the
	// batched inbox is one channel send, so even the exact protocol's
	// millions of rounds cost a handful of channel operations per phase.
	for _, e := range p.active {
		go p.hostFn[e]()
		lo := p.offset[e]
		hi := lo + p.count[e]
		p.inbox[e] <- hostIn{msgs: p.msgbuf[lo:hi], base: p.clock[e]}
	}
	for range p.active {
		out := <-p.done
		p.clock[out.exec] = out.clock
		p.count[out.exec] = 0
	}
	for i, op := range ops {
		t := p.dones[i]
		if p.clock[op.Peer] < t {
			p.clock[op.Peer] = t
		}
		if *completion < t {
			*completion = t
		}
	}
}

// host is one phase of one exec node's goroutine: it drains its inbox
// in order, advancing its virtual clock past each request's issue time
// plus the link crossing, and reports its final clock. Completion
// times land in the shared dones slice at disjoint indices (each op
// belongs to exactly one host), so the only cross-goroutine hand-off
// is the two channel operations.
func (p *Plane) host(e int32) {
	in := <-p.inbox[e]
	rc := in.base
	for _, m := range in.msgs {
		t := m.issue
		if rc > t {
			t = rc
		}
		t += m.delay
		rc = t
		p.dones[m.idx] = t
	}
	p.done <- hostOut{exec: e, clock: rc}
}
