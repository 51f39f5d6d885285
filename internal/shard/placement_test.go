package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/par"
)

// placedManager builds an S-shard manager placed on topo under policy.
func placedManager(t *testing.T, cfg core.Config, shards int, topo *hw.Topology, policy hw.PlacementPolicy, weights []float64) *Manager {
	t.Helper()
	var pl hw.Placement
	if topo != nil {
		var err error
		pl, err = hw.NewPlacement(policy, topo, shards, weights)
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(Config{Scratchpad: cfg, Shards: shards, Pool: par.New(2), Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlacementInvariance is the satellite acceptance property: plans,
// eviction victims, and statistics are identical across co-located,
// stripe, range, and load-aware placements — only the modeled
// coordination latency differs.
func TestPlacementInvariance(t *testing.T) {
	const shards = 8
	cfg := testConfig(512, 96)
	topo := hw.Cluster(2, 2)
	weights := []float64{13, 1, 7, 2, 11, 3, 5, 1} // skewed shard heat
	managers := []*Manager{
		placedManager(t, cfg, shards, nil, "", nil), // co-located baseline
		placedManager(t, cfg, shards, topo, hw.PlaceStripe, nil),
		placedManager(t, cfg, shards, topo, hw.PlaceRange, nil),
		placedManager(t, cfg, shards, topo, hw.PlaceLoadAware, weights),
	}
	labels := []string{"colocated", "stripe", "range", "loadaware"}

	st := newStream(77, 96, 96, int64(512*4))
	const depth = 4
	pend := make([][]*core.PlanResult, len(managers))
	for seq := 0; seq < 150; seq++ {
		future, hints := st.window(seq, 2, 6)
		var base *core.PlanResult
		for i, m := range managers {
			res, err := m.PlanWithHints(seq, st.at(seq), future, hints)
			if err != nil {
				t.Fatalf("%s seq %d: %v", labels[i], seq, err)
			}
			if i == 0 {
				base = res
			} else {
				samePlan(t, labels[i], seq, base, res)
				// Placement must not even change physical slots: the
				// same hash partition runs under every placement.
				for k := range base.Slots {
					if base.Slots[k] != res.Slots[k] {
						t.Fatalf("%s seq %d: slot %d differs (%d vs %d): placement changed planning",
							labels[i], seq, k, base.Slots[k], res.Slots[k])
					}
				}
			}
			pend[i] = append(pend[i], res)
			if len(pend[i]) >= depth {
				if err := m.Release(seq - depth + 1); err != nil {
					t.Fatalf("%s: release: %v", labels[i], err)
				}
				m.Recycle(pend[i][0])
				pend[i] = pend[i][1:]
			}
		}
	}
	for i := 1; i < len(managers); i++ {
		if managers[0].Stats() != managers[i].Stats() {
			t.Fatalf("%s: stats diverged from co-located:\n%+v\n%+v",
				labels[i], managers[0].Stats(), managers[i].Stats())
		}
	}
	// The co-located manager must charge nothing; every distributed
	// placement must have metered real traffic and real latency.
	if cs := managers[0].CoordStats(); cs != (CoordStats{}) {
		t.Fatalf("co-located manager metered coordination: %+v", cs)
	}
	if managers[0].LastPlanCoord() != 0 {
		t.Fatalf("co-located LastPlanCoord %g, want 0", managers[0].LastPlanCoord())
	}
	for i := 1; i < len(managers); i++ {
		cs := managers[i].CoordStats()
		if cs.Seconds <= 0 || cs.Bytes() <= 0 || cs.Messages <= 0 {
			t.Fatalf("%s: no coordination metered: %+v", labels[i], cs)
		}
		if cs.TouchStampBytes <= 0 || cs.VictimMergeBytes <= 0 {
			t.Fatalf("%s: missing traffic class: %+v", labels[i], cs)
		}
	}
}

// TestCoordTierMonotonicity drives the same stream over two-node
// topologies one interconnect tier apart: total coordination latency
// must rise strictly as the links slow (NUMA -> PCIe -> network), while
// traffic bytes stay identical — the placement study's acceptance shape.
func TestCoordTierMonotonicity(t *testing.T) {
	cfg := testConfig(256, 64)
	topos := []*hw.Topology{hw.MultiSocket(2), hw.PCIePool(2), hw.Cluster(2, 1)}
	var prev float64
	var prevBytes float64
	for i, topo := range topos {
		m := placedManager(t, cfg, 4, topo, hw.PlaceStripe, nil)
		st := newStream(31, 64, 64, int64(256*4))
		var pend []*core.PlanResult
		for seq := 0; seq < 100; seq++ {
			future, _ := st.window(seq, 2, 0)
			res, err := m.PlanWithHints(seq, st.at(seq), future, nil)
			if err != nil {
				t.Fatal(err)
			}
			pend = append(pend, res)
			if len(pend) >= 4 {
				if err := m.Release(seq - 3); err != nil {
					t.Fatal(err)
				}
				m.Recycle(pend[0])
				pend = pend[1:]
			}
		}
		cs := m.CoordStats()
		if cs.Seconds <= prev {
			t.Fatalf("%s: coordination seconds %g not above previous tier's %g", topo.Name, cs.Seconds, prev)
		}
		if i > 0 && cs.Bytes() != prevBytes {
			t.Fatalf("%s: traffic %g bytes differs from previous tier's %g (placement must not change behaviour)",
				topo.Name, cs.Bytes(), prevBytes)
		}
		prev, prevBytes = cs.Seconds, cs.Bytes()
	}
}

// TestCoordColocatedOnBigTopology: a placement that parks every shard on
// one node of a wide topology meters nothing — locality, not topology
// size, decides the cost.
func TestCoordColocatedOnBigTopology(t *testing.T) {
	cfg := testConfig(128, 32)
	topo := hw.Cluster(4, 2)
	pl := hw.Placement{Topo: topo, Node: []int{3, 3, 3, 3}, Policy: hw.PlaceStripe}
	m, err := New(Config{Scratchpad: cfg, Shards: 4, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(13, 32, 32, 512)
	var pend []*core.PlanResult
	for seq := 0; seq < 40; seq++ {
		future, _ := st.window(seq, 2, 0)
		res, err := m.PlanWithHints(seq, st.at(seq), future, nil)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, res)
		if len(pend) >= 4 {
			if err := m.Release(seq - 3); err != nil {
				t.Fatal(err)
			}
			m.Recycle(pend[0])
			pend = pend[1:]
		}
	}
	if cs := m.CoordStats(); cs != (CoordStats{}) {
		t.Fatalf("co-located placement metered coordination: %+v", cs)
	}
}

// TestPrewarmNotMetered: PrewarmRows shuffles free slots across shards
// before training starts; that construction-time traffic must not be
// billed to the first Plan's coordination latency (or to the lifetime
// stats at all).
func TestPrewarmNotMetered(t *testing.T) {
	cfg := testConfig(256, 64)
	m := placedManager(t, cfg, 4, hw.Cluster(2, 2), hw.PlaceStripe, nil)
	draws := 0
	m.Prewarm(func() int64 { draws++; return int64(draws * 7) }, nil)
	if cs := m.CoordStats(); cs != (CoordStats{}) {
		t.Fatalf("prewarm metered coordination: %+v", cs)
	}
	// The first Plan after prewarm prices only its own traffic: its
	// latency must match the same Plan on a freshly-planned manager
	// whose stamp sync is the only guaranteed component, i.e. be
	// finite and reflect a single Plan (no warm-up backlog dumped in).
	st := newStream(5, 8, 64, 1024)
	res, err := m.PlanWithHints(0, st.at(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Recycle(res)
	cs := m.CoordStats()
	if m.LastPlanCoord() != cs.Seconds {
		t.Fatalf("first Plan charged %g but lifetime says %g: pre-Plan traffic leaked in",
			m.LastPlanCoord(), cs.Seconds)
	}
	if cs.BorrowBytes != 0 {
		t.Fatalf("first Plan (free capacity everywhere) shows borrow traffic: %+v", cs)
	}
}

// TestPlacementConfigValidation: inconsistent placements are rejected at
// construction, and a valid one is kept at every shard count.
func TestPlacementConfigValidation(t *testing.T) {
	cfg := testConfig(64, 16)
	topo := hw.MultiSocket(2)
	if _, err := New(Config{Scratchpad: cfg, Shards: 4,
		Placement: hw.Placement{Topo: topo, Node: []int{0, 1}}}); err == nil {
		t.Fatal("placement covering 2 of 4 shards accepted")
	}
	if _, err := New(Config{Scratchpad: cfg, Shards: 2,
		Placement: hw.Placement{Topo: topo, Node: []int{0, 7}}}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := New(Config{Scratchpad: cfg, Shards: 2,
		Placement: hw.Placement{Node: []int{0, 1}}}); err == nil {
		t.Fatal("node assignment without topology accepted")
	}
	// A single shard keeps its placement like any other shard count.
	m, err := New(Config{Scratchpad: cfg, Shards: 1, Placement: hw.Placement{Topo: topo, Node: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Placement(); got.Topo != topo || len(got.Node) != 1 || got.Node[0] != 1 {
		t.Fatalf("S=1 manager reports placement %+v, want node 1 of %s", got, topo.Name)
	}
}
