// Coordination protocols: how the cross-shard eviction-budget
// coordinator talks once shards live on different topology nodes.
//
// PR 3's costed placement model showed the exact per-eviction protocol
// is unaffordable over PCIe/network tiers: every eviction pays a
// cross-node candidate-poll round trip, so coordination rounds grow as
// O(evictions x shards) per Plan — the communication wall Acun et al.
// ("Understanding Training Efficiency of DLRM at Scale") observe once
// embedding-access communication dominates scale-out DLRM training.
// This file applies the source paper's look-forward insight to the
// coordinator itself: a Plan knows its whole miss budget up front, so
// coordination for the entire batch can be planned in advance instead
// of reacting one eviction at a time.
//
// Three protocols, selected by [CoordMode]:
//
//   - CoordExact: the PR 3 protocol. One poll round per fresh victim
//     candidate, one confirm round per victim, one transfer round per
//     cross-shard slot move. Reference semantics and reference meter.
//   - CoordHier: batched polling through a per-host coordinator tier.
//     One poll round per shard per sweep gathers the shard's next k
//     evictable candidates (k = the Plan's miss budget, so one batch
//     always covers the sweep). Shards talk only to their host's
//     aggregator (the node of the host's lowest shard) at intra-host
//     cost; hosts exchange only host-level candidate batches,
//     confirmations, and stamp counts with the global coordinator,
//     cutting cross-host rounds from O(evictions x shards) to
//     O(rounds x hosts). Confirms and slot transfers are aggregated
//     into one round per host, shard, or shard pair at Plan end. On a
//     single host, or with one shard per host, the host tier sends
//     nothing and hier is flat batched polling. Candidate selection is
//     unchanged — parked candidates are consumed lazily from the batch
//     and re-polled only after a sweep re-arm — so the eviction
//     sequence is bit-identical to exact.
//   - CoordApprox: the hierarchical protocol minus touch-stamp sync
//     entirely. Touch stamps are epoch-quantized (approxQuantum clock
//     ticks per epoch): shards order victims by quantized epoch, which
//     each shard derives locally from the batch stream, so no per-Plan
//     stamp round trips exist at any tier. Stamps within one epoch tie
//     and resolve toward the lower shard index, so the eviction
//     sequence may diverge from exact LRU. What that costs is read from
//     a same-seed run under an exact-order mode: the difference in the
//     two runs' hit and fill counters is its whole cache-level cost.
//     With quantum 1 (a test-only setting) the quantized order equals
//     the exact order and the two runs plan identically.
//
// The protocol changes only message accounting (and, for approx, the
// merge key); hierarchical plans, victims, and statistics are identical
// to exact at every shard count — the equivalence tests in
// hierarchy_test.go prove it plan by plan.

package shard

import "fmt"

// CoordMode selects the cross-shard coordination protocol.
type CoordMode string

const (
	// CoordExact is the reference per-eviction protocol: one candidate
	// poll round per fresh candidate, one confirm round per victim.
	CoordExact CoordMode = "exact"
	// CoordHier gathers each shard's next-evictable candidates in one
	// round per sweep through a per-host coordinator tier and batches
	// confirms/transfers per Plan: hosts exchange only host-level
	// winner batches; eviction sequence identical to exact.
	CoordHier CoordMode = "hier"
	// CoordApprox is CoordHier with epoch-quantized touch stamps and no
	// stamp-sync traffic at all; eviction order may diverge from exact
	// LRU.
	CoordApprox CoordMode = "approx"
)

// CoordModes lists every protocol in escalation order (each mode sends
// strictly less cross-tier traffic than the one before it).
var CoordModes = []CoordMode{CoordExact, CoordHier, CoordApprox}

// CoordModeNames lists the parseable protocol names for usage errors.
const CoordModeNames = "exact, hier, approx"

// approxQuantum is the approx-mode stamp quantum (global clock ticks per
// recency epoch): coarse enough that quantization shows in the victim
// order, fine enough (well under typical scratchpad populations) to keep
// the divergence bounded.
const approxQuantum = 64

// ParseCoordMode resolves a coordination protocol name ("" selects
// exact).
func ParseCoordMode(s string) (CoordMode, error) {
	switch m := CoordMode(s); m {
	case "":
		return CoordExact, nil
	case CoordExact, CoordHier, CoordApprox:
		return m, nil
	}
	return "", fmt.Errorf("shard: unknown coordination mode %q (want %s)", s, CoordModeNames)
}
