// Fault-injection orchestration: the dynamic-cache engines walk the
// environment's hw.FaultPlan at the same between-Plans boundary the
// elastic reshard schedule uses (detection -> evacuate -> recover with
// batches still in flight, so the pipeline never drains), mutate the
// env's live topology clone, and drive the shard managers' failure
// reactions (shard.Manager.Evacuate / Degrade / Heal /
// ReelectAggregator). The bill lands in Report.Downtime (detection
// blips), Report.RecoveryTime (evacuation transfers, stamp re-syncs,
// re-elections, recovery-point replay), Report.LostResidency (entries
// dropped with their hosts, repriced as the cold misses that refill
// them), and the availability fraction.
//
// Checkpointing is the priced knob on the recovery point: with
// EnvConfig.CkptInterval > 0 every interval flushes the scratchpad's
// resident rows to stable storage (CheckpointTime), a host death then
// restores residency from the last flush at bulk-transfer prices and
// replays the iterations since it; with the interval at 0 the flushes
// cost nothing but a death drops residency cold. examples/failure_study
// sweeps the trade-off into an availability-vs-cost frontier.

package engine

import (
	"fmt"

	"repro/internal/hw"
)

// DefaultDetectLatency is the modeled failure-detection latency
// (seconds) charged to Report.Downtime when a service-affecting fault
// strikes — the heartbeat-timeout window before the fleet reacts. Link
// degradations charge nothing: the link stays up, only slower.
const DefaultDetectLatency = 0.5

// maybeFault prices the checkpoint-flush schedule and applies every
// fault event due before the batch at iteration it (0-based) is
// planned. wall is the engine's simulated time so far — the observed
// per-iteration rate prices recovery-point replay. Called by the
// dynamic-cache engines beside maybeReshard, between Plans.
func (d *dynamicState) maybeFault(it int, wall float64) error {
	cfg := &d.env.Cfg
	if cfg.CkptInterval > 0 && it%cfg.CkptInterval == 0 {
		d.ckptSecs += d.checkpointFlush()
		d.lastCkpt = it
	}
	if !cfg.Faults.Active() {
		return nil
	}
	boundary := int64(it + 1) // events use 1-based strike iterations
	for i := 0; i < len(d.heals); {
		if d.heals[i].Heal > boundary {
			i++
			continue
		}
		d.healEvent(d.heals[i])
		d.heals = append(d.heals[:i], d.heals[i+1:]...)
	}
	for d.faultNext < len(cfg.Faults.Events) && cfg.Faults.Events[d.faultNext].Iter <= boundary {
		e := cfg.Faults.Events[d.faultNext]
		d.faultNext++
		if err := d.strike(e, it, wall); err != nil {
			return err
		}
		if e.Heal > 0 {
			d.heals = append(d.heals, e)
		}
	}
	return nil
}

// strike applies one fault event to the live topology and the shard
// managers.
func (d *dynamicState) strike(e hw.FaultEvent, it int, wall float64) error {
	topo := d.env.Cfg.Topology
	switch e.Kind {
	case hw.FaultHostDown:
		d.downtimeSecs += DefaultDetectLatency
		return d.killHost(e.Host, it, wall)
	case hw.FaultLinkDown:
		d.downtimeSecs += DefaultDetectLatency
		topo.SetHostLinksDown(e.Host, e.HostB, true)
		d.partitions++
		if d.partitions == 1 {
			// The coordinator cannot sync stamps across the cut, so
			// every manager runs the partition-mode approx protocol
			// until the last partition heals.
			for _, sp := range d.sps {
				sp.Degrade()
			}
		}
	case hw.FaultLinkDegraded:
		topo.DegradeHostLinks(e.Host, e.HostB, e.Factor)
	case hw.FaultAggLoss:
		d.downtimeSecs += DefaultDetectLatency
		for _, sp := range d.sps {
			d.recoverySecs += sp.ReelectAggregator(e.Host)
		}
	}
	return nil
}

// healEvent un-applies a link event at its heal iteration: the pair's
// links restore from the pristine clone (unless an endpoint has died
// since — dead hosts stay unreachable), and when the last partition
// heals every manager re-syncs stamps under its original protocol,
// priced into recovery.
func (d *dynamicState) healEvent(e hw.FaultEvent) {
	topo := d.env.Cfg.Topology
	topo.RestoreHostLinks(d.pristineTopo, e.Host, e.HostB)
	if d.deadHosts[e.Host] || d.deadHosts[e.HostB] {
		topo.SetHostLinksDown(e.Host, e.HostB, true)
	}
	if e.Kind == hw.FaultLinkDown {
		d.partitions--
		if d.partitions == 0 {
			for _, sp := range d.sps {
				d.recoverySecs += sp.Heal()
			}
		}
	}
}

// killHost applies a permanent host death: every link into the host
// goes down, each table's shards evacuate to the surviving nodes
// (hw.EvacuatePlacement chooses the homes, shard.Manager.Evacuate
// migrates and prices), and with checkpointing enabled the restored
// residency's recovery point is billed as replay of the iterations
// since the last flush.
func (d *dynamicState) killHost(h, it int, wall float64) error {
	topo := d.env.Cfg.Topology
	d.deadHosts[h] = true
	hostDead := func(host int) bool { return d.deadHosts[host] }
	seen := make(map[int]bool)
	for _, n := range topo.Nodes {
		if n.Host != h && !seen[n.Host] {
			seen[n.Host] = true
			topo.SetHostLinksDown(h, n.Host, true)
		}
	}
	var restore float64
	if d.env.Cfg.CkptInterval > 0 {
		restore = d.faultRowBytes()
	}
	for t, sp := range d.sps {
		place := sp.Placement()
		if place.Topo == nil {
			// Co-located control plane (S <= 1): nothing is placed on
			// the dead host, so there is nothing to evacuate.
			continue
		}
		newPlace, err := hw.EvacuatePlacement(place, hostDead)
		if err != nil {
			return fmt.Errorf("engine: host %d death: table %d: %w", h, t, err)
		}
		st, err := sp.Evacuate(newPlace, hostDead, restore)
		if err != nil {
			return fmt.Errorf("engine: host %d death: table %d: %w", h, t, err)
		}
		d.recoverySecs += st.Seconds
	}
	if d.env.Cfg.CkptInterval > 0 && it > d.lastCkpt && it > 0 {
		// Recovery point: the restored residency is the last flush's
		// image, so the iterations since then retrain at the run's
		// observed per-iteration rate.
		d.recoverySecs += float64(it-d.lastCkpt) * wall / float64(it)
	}
	return nil
}

// faultRowBytes is the per-row checkpoint-restore payload: one
// embedding row plus its optimizer state.
func (d *dynamicState) faultRowBytes() float64 {
	return float64(d.env.Cfg.Model.EmbeddingDim+d.env.StateDim) * 4
}

// checkpointFlush prices one periodic scratchpad checkpoint: every
// table's resident rows (embeddings + optimizer state) stream GPU->CPU
// over PCIe and then to stable storage at CPU streaming bandwidth. The
// cost scales with residency, so shorter intervals buy a nearer
// recovery point at a proportionally larger share of the run.
func (d *dynamicState) checkpointFlush() float64 {
	rows := 0
	for _, sp := range d.sps {
		rows += sp.Len()
	}
	bytes := float64(rows) * d.faultRowBytes()
	return d.cost.pcie(bytes) + d.env.Cfg.System.CPU.StreamTime(bytes)
}
