package shard

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/par"
)

// modeManager builds an S-shard manager placed on topo (stripe policy)
// running the given coordination protocol.
func modeManager(t *testing.T, cfg core.Config, shards int, topo *hw.Topology, mode CoordMode) *Manager {
	t.Helper()
	var pl hw.Placement
	if topo != nil {
		var err error
		pl, err = hw.NewPlacement(hw.PlaceStripe, topo, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(Config{
		Scratchpad: cfg,
		Shards:     shards,
		Pool:       par.New(2),
		Placement:  pl,
		Coord:      mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// driveSlotLockstep runs the same stream through two managers, requiring
// byte-identical plans *including physical slot numbers* (both managers
// run the same hash partition, so even slots must agree).
func driveSlotLockstep(t *testing.T, label string, a, b *Manager, st *stream, iters, futureWin, lookahead int) {
	t.Helper()
	const depth = 4
	var pendA, pendB []*core.PlanResult
	for seq := 0; seq < iters; seq++ {
		future, hints := st.window(seq, futureWin, lookahead)
		ra, err := a.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatalf("%s seq %d: a.Plan: %v", label, seq, err)
		}
		rb, err := b.PlanWithHints(seq, st.at(seq), future, hints)
		if err != nil {
			t.Fatalf("%s seq %d: b.Plan: %v", label, seq, err)
		}
		samePlan(t, label, seq, ra, rb)
		for i := range ra.Slots {
			if ra.Slots[i] != rb.Slots[i] {
				t.Fatalf("%s seq %d: slot %d: %d vs %d (coordination mode changed planning)",
					label, seq, i, ra.Slots[i], rb.Slots[i])
			}
		}
		pendA, pendB = append(pendA, ra), append(pendB, rb)
		if len(pendA) >= depth {
			old := seq - depth + 1
			if err := a.Release(old); err != nil {
				t.Fatalf("%s: a.Release(%d): %v", label, old, err)
			}
			if err := b.Release(old); err != nil {
				t.Fatalf("%s: b.Release(%d): %v", label, old, err)
			}
			a.Recycle(pendA[0])
			b.Recycle(pendB[0])
			pendA, pendB = pendA[1:], pendB[1:]
		}
	}
}

// TestCoordModeExactness is the tentpole acceptance property:
// hierarchical coordination must produce byte-identical plans, victims,
// slots, and statistics to the exact protocol at every shard count, on
// both intra-host (numa) and cross-host (cluster) topologies — batching
// changes only how the merge is *communicated*, never what it decides.
func TestCoordModeExactness(t *testing.T) {
	topos := map[string]func(int) *hw.Topology{
		"numa":    func(s int) *hw.Topology { return hw.MultiSocket(s) },
		"cluster": func(s int) *hw.Topology { return hw.Cluster(2, (s+1)/2) },
	}
	for topoName, mk := range topos {
		for _, shards := range []int{2, 3, 4, 7} {
			label := "hier-" + topoName + "-S" + string(rune('0'+shards))
			t.Run(label, func(t *testing.T) {
				cfg := testConfig(512, 96)
				exact := modeManager(t, cfg, shards, mk(shards), CoordExact)
				m := modeManager(t, cfg, shards, mk(shards), CoordHier)
				st := newStream(int64(shards)*31+int64(len(topoName)), 96, 96, int64(512*4))
				driveSlotLockstep(t, label, exact, m, st, 150, 2, 6)
				if exact.Stats() != m.Stats() {
					t.Fatalf("stats diverged:\nexact %+v\nhier  %+v", exact.Stats(), m.Stats())
				}
			})
		}
	}
}

// driveRounds pushes a fixed stream through m and returns its lifetime
// coordination stats.
func driveRounds(t *testing.T, m *Manager, seed int64, iters int) CoordStats {
	t.Helper()
	st := newStream(seed, 96, 96, int64(512*4))
	var pend []*core.PlanResult
	for seq := 0; seq < iters; seq++ {
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
	return m.CoordStats()
}

// TestCoordRoundReduction encodes the headline perf claim: on the
// two-host cluster at S=4, hierarchical coordination cuts message rounds
// per Plan by at least 5x against the exact protocol at identical plans
// and is strictly cheaper in modeled time, and approx sends strictly
// less traffic than hier.
func TestCoordRoundReduction(t *testing.T) {
	cfg := testConfig(512, 96)
	topo := hw.Cluster(2, 2)
	const iters = 120
	stats := map[CoordMode]CoordStats{}
	for _, mode := range CoordModes {
		m := modeManager(t, cfg, 4, topo, mode)
		stats[mode] = driveRounds(t, m, 1234, iters)
	}
	exact, hier, approx := stats[CoordExact], stats[CoordHier], stats[CoordApprox]
	if exact.Messages == 0 || hier.Messages == 0 {
		t.Fatalf("no coordination metered: exact %d, hier %d rounds", exact.Messages, hier.Messages)
	}
	if hier.Messages*5 > exact.Messages {
		t.Fatalf("hier rounds %d not >=5x below exact's %d", hier.Messages, exact.Messages)
	}
	if !(exact.Seconds > hier.Seconds && hier.Seconds > 0) {
		t.Fatalf("modeled coordination time not strictly decreasing: exact %g, hier %g", exact.Seconds, hier.Seconds)
	}
	if approx.Bytes() >= hier.Bytes() || approx.Messages >= hier.Messages {
		t.Fatalf("approx traffic (%g B, %d rounds) not strictly below hier (%g B, %d rounds)",
			approx.Bytes(), approx.Messages, hier.Bytes(), hier.Messages)
	}
	if approx.StampSyncRounds != 0 || approx.TouchStampBytes != 0 {
		t.Fatalf("approx metered stamp-sync traffic: %+v", approx)
	}
	// The per-pattern breakdown must account for every round.
	for mode, s := range stats {
		if sum := s.PollRounds + s.ConfirmRounds + s.SlotMoveRounds + s.StampSyncRounds + s.BorrowRounds; sum != s.Messages {
			t.Fatalf("%s: pattern rounds sum %d != total messages %d (%+v)", mode, sum, s.Messages, s)
		}
	}
}

// TestApproxQuantumOneIsExact is the fuzz satellite: with quantum 1 the
// quantized merge key equals the raw stamp, so approx mode must emit
// byte-identical plans and statistics to exact, across randomized
// configurations and streams.
func TestApproxQuantumOneIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		slots := 64 + rng.Intn(512)
		batchLen := 16 + rng.Intn(96)
		idSpace := int64(slots/2 + rng.Intn(slots*6))
		shards := []int{2, 3, 4, 7}[trial%4]
		cfg := core.Config{
			Slots:        slots,
			Policy:       cache.LRU,
			PastWindow:   3,
			FutureWindow: rng.Intn(3),
		}
		cfg.Reserve = core.WorstCaseReserve(cfg, batchLen)
		exact := modeManager(t, cfg, shards, hw.Cluster(2, (shards+1)/2), CoordExact)
		approx := modeManager(t, cfg, shards, hw.Cluster(2, (shards+1)/2), CoordApprox)
		approx.quantum = 1
		st := newStream(rng.Int63(), 32, batchLen, idSpace)
		driveSlotLockstep(t, "approx-q1", exact, approx, st, 60, cfg.FutureWindow, 0)
		if exact.Stats() != approx.Stats() {
			t.Fatalf("trial %d: stats diverged:\nexact  %+v\napprox %+v", trial, exact.Stats(), approx.Stats())
		}
	}
}

// TestApproxDivergenceMeasured: with a coarse quantum the approximate
// LRU must actually diverge from exact. An exact manager and a
// quantum-4096 approx manager share the config, the prewarm draws and
// the stream; some Plan's eviction-victim sequence must differ, while
// both still count the same queries.
func TestApproxDivergenceMeasured(t *testing.T) {
	cfg := testConfig(256, 64)
	exact := modeManager(t, cfg, 4, hw.Cluster(2, 2), CoordExact)
	approx := modeManager(t, cfg, 4, hw.Cluster(2, 2), CoordApprox)
	approx.quantum = 4096
	for _, m := range []*Manager{exact, approx} {
		rng := rand.New(rand.NewSource(5))
		m.Prewarm(func() int64 { return rng.Int63n(1024) }, nil)
	}
	st := newStream(9, 96, 64, 1024)
	var pendE, pendA []*core.PlanResult
	diverged := false
	for seq := 0; seq < 120; seq++ {
		future, _ := st.window(seq, 2, 0)
		re, err := exact.PlanWithHints(seq, st.at(seq), future, nil)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := approx.PlanWithHints(seq, st.at(seq), future, nil)
		if err != nil {
			t.Fatal(err)
		}
		diverged = diverged || !slices.EqualFunc(re.Evictions, ra.Evictions,
			func(a, b core.Eviction) bool { return a.OldID == b.OldID })
		pendE, pendA = append(pendE, re), append(pendA, ra)
		if len(pendE) >= 4 {
			for _, m := range []*Manager{exact, approx} {
				if err := m.Release(seq - 3); err != nil {
					t.Fatal(err)
				}
			}
			exact.Recycle(pendE[0])
			approx.Recycle(pendA[0])
			pendE, pendA = pendE[1:], pendA[1:]
		}
	}
	if !diverged {
		t.Fatal("coarse-quantum approx evicted exactly the exact protocol's victims on every Plan")
	}
	if e, a := exact.Stats().Queries, approx.Stats().Queries; e != a {
		t.Fatalf("approx counted %d queries, exact %d", a, e)
	}
}

// TestCoordModeValidation: unknown protocols are rejected at
// construction; every named mode constructs.
func TestCoordModeValidation(t *testing.T) {
	cfg := testConfig(64, 16)
	for _, bad := range []CoordMode{"gossip", "batched"} {
		if _, err := New(Config{Scratchpad: cfg, Shards: 2, Coord: bad}); err == nil {
			t.Fatalf("unknown coordination mode %q accepted", bad)
		}
	}
	for _, mode := range CoordModes {
		m, err := New(Config{Scratchpad: cfg, Shards: 2, Coord: mode})
		if err != nil {
			t.Fatalf("mode %s rejected: %v", mode, err)
		}
		if m.CoordMode() != mode {
			t.Fatalf("mode %s reports %s", mode, m.CoordMode())
		}
	}
	// A single shard accepts every mode (no coordination exists).
	for _, mode := range CoordModes {
		if _, err := New(Config{Scratchpad: cfg, Shards: 1, Coord: mode}); err != nil {
			t.Fatalf("S=1 mode %s rejected: %v", mode, err)
		}
	}
}
