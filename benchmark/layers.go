package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/intmap"
	"repro/internal/msgplane"
	"repro/internal/shard"
	"repro/internal/trace"
)

// coldPlans is how many Plans after construction count as cold: plan
// buffers, pools and hint stamps are still growing. A training data
// point runs 8 iterations, so the sweep pays cold cost throughout.
const coldPlans = 8

// planShape is how a consumer drives one table's scratchpad manager.
type planShape struct {
	name         string
	past, future int // hold windows of the manager's configuration
	// lag is how many later Plans run before a batch's holds are
	// released: ScratchPipe releases a batch as it enters [Train], three
	// Plans after its own; the straw-man and a serving replica release
	// right after the Plan.
	lag int
	// occurrence hands Plan the raw ID stream (the serving replica's
	// call) instead of the batch's distinct IDs with counts.
	occurrence bool
	// prewarm fills the scratchpad before the first Plan, as the
	// training engines do; a serving replica starts cold.
	prewarm bool
}

var (
	strawmanShape    = planShape{name: "strawman", prewarm: true}
	scratchpipeShape = planShape{name: "scratchpipe", past: 3, future: 2, lag: 3, prewarm: true}
	servingShape     = planShape{name: "serving", past: 1, occurrence: true}
)

// replayParams is one replayed data point.
type replayParams struct {
	tables  int
	rows    int64
	lookups int
	batch   int
	class   trace.Class
	frac    float64
	seed    int64
	plans   int // Plans the consumer runs at this point
	// warmPlans continues past plans, for steady-state cost; excluded
	// from the replayed busy time.
	warmPlans int
	// reserveIDs sizes the worst-case reserve (IDs per Plan); 0 selects
	// batch*lookups.
	reserveIDs int
	shape      planShape
}

// layerReplay drives trace.Generator/Loader and shard.Manager (which at
// one shard is core.Scratchpad) the way the engines do, timing each
// layer's calls from outside.
type layerReplay struct {
	rec    *recorder
	shards int
	topo   *hw.Topology
	coord  shard.CoordMode
	layer  string // "core" at one shard, else "shard"
	root   int

	busy         float64 // replayed layer time inside the consumers' window
	ids, uniq    float64
	batches      float64
	nextBytes    float64
	newBytes     float64
	cold, warm   planCost
	releases     float64
	releaseSec   float64
	stats        core.Stats
	coordStats   shard.CoordStats
	plansMetered float64 // Plans behind coordStats
}

type planCost struct {
	sec, uids, calls, mallocs, bytes float64
}

func newLayerReplay(rec *recorder, shards int, topo *hw.Topology, coord shard.CoordMode) *layerReplay {
	lr := &layerReplay{rec: rec, shards: shards, topo: topo, coord: coord, layer: "core"}
	if shards > 1 {
		lr.layer = "shard"
	}
	lr.root = rec.begin("replay", 0)
	return lr
}

// point replays one data point: build the batch stream and the managers
// the way engine.newDynamicState does, prewarm, then Plan / Release /
// Recycle in the consumer's order.
func (lr *layerReplay) point(p replayParams) error {
	rec := lr.rec
	gen, err := trace.NewGenerator(trace.GeneratorConfig{
		NumTables: p.tables, RowsPerTable: p.rows, Lookups: p.lookups, BatchSize: p.batch,
		Class: p.class, Seed: p.seed, MetadataOnly: true,
	})
	if err != nil {
		return err
	}
	var loader *trace.Loader
	_, bytes := allocDelta(func() {
		lr.busy += rec.time("trace.next", lr.root, func() { loader, err = trace.NewLoader(gen, p.shape.future) })
	})
	if err != nil {
		return err
	}
	lr.nextBytes += bytes
	lr.batches += float64(p.shape.future + 1)

	slots := max(int(p.frac*float64(p.rows)), 1)
	reserveIDs := p.reserveIDs
	if reserveIDs == 0 {
		reserveIDs = p.batch * p.lookups
	}
	var place hw.Placement
	if lr.topo != nil && lr.shards > 1 {
		if place, err = hw.NewPlacement(hw.PlaceStripe, lr.topo, lr.shards, nil); err != nil {
			return err
		}
	}
	mgrs := make([]*shard.Manager, p.tables)
	_, bytes = allocDelta(func() {
		id := rec.begin(lr.layer+".new", lr.root)
		for t := range mgrs {
			spCfg := core.Config{
				Slots: slots, Policy: cache.LRU, PolicySeed: p.seed + int64(2000+t),
				PastWindow: p.shape.past, FutureWindow: p.shape.future,
			}
			spCfg.Reserve = core.WorstCaseReserve(spCfg, reserveIDs)
			if mgrs[t], err = shard.New(shard.Config{
				Scratchpad: spCfg, Shards: lr.shards, Placement: place, Coord: lr.coord,
			}); err != nil {
				break
			}
		}
		lr.busy += rec.end(id)
	})
	lr.newBytes += bytes
	if err != nil {
		return err
	}
	if p.shape.prewarm {
		dists := gen.Dists()
		lr.busy += rec.time(lr.layer+".prewarm", lr.root, func() {
			for t, mgr := range mgrs {
				rng := rand.New(rand.NewSource(p.seed + int64(3000+t)))
				mgr.PrewarmRows(p.rows, func() int64 { return dists[t].Sample(rng) }, nil)
			}
		})
	}

	type inflight struct {
		batch *trace.Batch
		plans []*core.PlanResult
	}
	var window []inflight
	future := make([][]int64, p.shape.future)
	retire := func() (float64, error) {
		old := window[0]
		window = window[1:]
		id := rec.begin(lr.layer+".release", lr.root)
		for _, mgr := range mgrs {
			if err := mgr.Release(old.batch.Seq); err != nil {
				return 0, err
			}
		}
		sec := rec.end(id)
		lr.releaseSec += sec
		lr.releases += float64(len(mgrs))
		for t, mgr := range mgrs {
			mgr.Recycle(old.plans[t])
		}
		gen.Recycle(old.batch)
		return sec, nil
	}
	for s := 0; s < p.plans+p.warmPlans; s++ {
		inWindow := s < p.plans
		var b *trace.Batch
		var sec float64
		_, bytes := allocDelta(func() {
			sec = rec.time("trace.next", lr.root, func() { b = loader.Advance() })
		})
		for t := range b.Tables {
			lr.ids += float64(len(b.Tables[t]))
			lr.uniq += float64(len(b.UniqueIDs(t)))
		}
		lr.batches++
		lr.nextBytes += bytes
		if inWindow {
			lr.busy += sec
		}

		cur := inflight{batch: b, plans: make([]*core.PlanResult, len(mgrs))}
		cost := &lr.warm
		if s < coldPlans {
			cost = &lr.cold
		}
		mallocs, bytes := allocDelta(func() {
			id := rec.begin(lr.layer+".plan", lr.root)
			defer func() { sec = rec.end(id) }()
			for t, mgr := range mgrs {
				if p.shape.occurrence {
					cur.plans[t], err = mgr.Plan(b.Seq, b.Tables[t], nil)
				} else {
					for k := range future {
						future[k] = loader.Peek(k).UniqueIDs(t)
					}
					uniq, cnt := b.UniqueWithCounts(t)
					cur.plans[t], err = mgr.PlanUniqueWithHints(b.Seq, uniq, cnt, future, nil)
				}
				if err != nil {
					return
				}
				cost.uids += float64(len(cur.plans[t].UniqueIDs))
			}
		})
		if err != nil {
			return err
		}
		cost.sec += sec
		cost.calls += float64(len(mgrs))
		cost.mallocs += mallocs
		cost.bytes += bytes
		if inWindow {
			lr.busy += sec
		}
		window = append(window, cur)
		if len(window) > p.shape.lag {
			sec, err := retire()
			if err != nil {
				return err
			}
			if inWindow {
				lr.busy += sec
			}
		}
	}
	for len(window) > 0 {
		if _, err := retire(); err != nil {
			return err
		}
	}
	for _, mgr := range mgrs {
		st := mgr.Stats()
		lr.stats.Hits += st.Hits
		lr.stats.Misses += st.Misses
		lr.stats.Fills += st.Fills
		lr.stats.Evictions += st.Evictions
		lr.stats.ReserveAllocs += st.ReserveAllocs
		lr.coordStats.Merge(mgr.CoordStats())
		lr.plansMetered += float64(p.plans + p.warmPlans)
	}
	return nil
}

// report turns the accumulated replay into the trace, core and shard
// layers' metrics. The control-plane timings land under core at one
// shard (shard.Manager delegates wholesale to core.Scratchpad) and
// under shard otherwise; the other layer was idle and reports zero.
func (lr *layerReplay) report(layer map[string]float64) {
	lr.rec.end(lr.root)
	nextSec, _ := lr.rec.total("trace.next")
	layer["trace.next_ns_per_id"] = nextSec * 1e9 / lr.ids
	layer["trace.next_alloc_bytes_per_batch"] = lr.nextBytes / lr.batches
	layer["trace.ids"] = lr.ids
	layer["trace.unique_ratio"] = lr.uniq / lr.ids

	newSec, _ := lr.rec.total(lr.layer + ".new")
	prewarmSec, _ := lr.rec.total(lr.layer + ".prewarm")
	perUID := func(c planCost) float64 {
		if c.uids == 0 {
			return 0
		}
		return c.sec * 1e9 / c.uids
	}
	warmAllocs := 0.0
	if lr.warm.calls > 0 {
		warmAllocs = lr.warm.mallocs / lr.warm.calls
	}
	for _, name := range []string{"core", "shard"} {
		on := 0.0
		if name == lr.layer {
			on = 1
		}
		layer[name+".new_ms"] = on * newSec * 1e3
		layer[name+".new_mb"] = on * lr.newBytes / 1e6
		layer[name+".prewarm_ms"] = on * prewarmSec * 1e3
		layer[name+".plan_ns_per_uid"] = on * perUID(lr.warm)
		layer[name+".plan_cold_ns_per_uid"] = on * perUID(lr.cold)
		layer[name+".plan_allocs_per_call"] = on * warmAllocs
		layer[name+".plan_warmup_alloc_mb"] = on * lr.cold.bytes / 1e6
		layer[name+".release_ns"] = on * lr.releaseSec * 1e9 / lr.releases
	}
	layer["core.hits"] = float64(lr.stats.Hits)
	layer["core.misses"] = float64(lr.stats.Misses)
	layer["core.fills"] = float64(lr.stats.Fills)
	layer["core.evictions"] = float64(lr.stats.Evictions)
	layer["core.reserve_allocs"] = float64(lr.stats.ReserveAllocs)
	layer["core.hit_ratio"] = float64(lr.stats.Hits) / float64(lr.stats.Hits+lr.stats.Misses)

	cs := lr.coordStats
	layer["shard.coord_rounds"] = float64(cs.Messages)
	layer["shard.coord_bytes"] = cs.Bytes()
	layer["shard.coord_sim_s"] = cs.Seconds
	layer["shard.rounds_per_eviction"] = 0
	if lr.stats.Evictions > 0 {
		layer["shard.rounds_per_eviction"] = float64(cs.Messages) / float64(lr.stats.Evictions)
	}
	layer["msgplane.coord_sim_wall_s"] = cs.WallSeconds + cs.WallHiddenSeconds
	layer["msgplane.skew"] = 0
	if cs.Seconds > 0 {
		layer["msgplane.skew"] = math.Abs(cs.Seconds-(cs.WallSeconds+cs.WallHiddenSeconds)) / cs.Seconds
	}
}

// msgplaneBench times msgplane.Execute on a script shaped like the
// average Plan's rounds in the replay's CoordStats: stamp syncs, polls,
// confirms and slot moves, each pattern its own barrier phase, fanned
// from the coordinator node to the others. Idle (zero) when the replay
// exchanged no rounds.
func (lr *layerReplay) msgplaneBench(layer map[string]float64) {
	layer["msgplane.ops"] = 0
	layer["msgplane.execute_ns_per_op"] = 0
	layer["msgplane.allocs_per_execute"] = 0
	cs := lr.coordStats
	if cs.Messages == 0 || lr.topo == nil {
		return
	}
	perRound := cs.Bytes() / float64(cs.Messages)
	nodes := int32(lr.topo.NumNodes())
	var script []msgplane.Op
	for phase, rounds := range []int64{cs.StampSyncRounds, cs.PollRounds, cs.ConfirmRounds, cs.SlotMoveRounds + cs.BorrowRounds} {
		for i := 0; i < int(float64(rounds)/lr.plansMetered+0.5); i++ {
			script = append(script, msgplane.Op{
				Exec: 0, Peer: 1 + int32(len(script))%(nodes-1), Bytes: perRound, Latency: true, Phase: int32(phase),
			})
		}
	}
	if len(script) == 0 {
		return
	}
	plane := msgplane.New(lr.topo)
	plane.Execute(nil, script)
	const executes = 200
	var mallocs float64
	sec := lr.rec.time("msgplane.execute", 0, func() {
		mallocs, _ = allocDelta(func() {
			for i := 0; i < executes; i++ {
				plane.Execute(nil, script)
			}
		})
	})
	layer["msgplane.ops"] = float64(len(script))
	layer["msgplane.execute_ns_per_op"] = sec * 1e9 / float64(executes*len(script))
	layer["msgplane.allocs_per_execute"] = mallocs / executes
}

// microLayers measures the leaf layers on their own: the per-class cost
// of drawing one sparse ID, and the intmap operations at the Hit-Map's
// size and load (slots resident in a table sized slots + reserve/2, as
// core.NewScratchpad sizes it), hit and miss key streams apart.
func microLayers(layer map[string]float64, rows int64, slots, reserve, batchIDs int, seed int64) error {
	// Every figure is the median of `chunks` timings of about `draws`
	// operations each: a single short timing is at the mercy of whatever
	// else the host is doing.
	const draws, chunks = 100_000, 5
	perOp := func(ops int, f func()) float64 {
		var ns [chunks]float64
		for c := range ns {
			t0 := time.Now()
			f()
			ns[c] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		}
		return median(ns[:])
	}
	for _, class := range trace.Classes {
		dist, err := trace.NewClassDistribution(class, rows)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed))
		var sink int64
		layer["trace.sample_ns."+class.String()] = perOp(draws, func() {
			for i := 0; i < draws; i++ {
				sink += dist.Sample(rng)
			}
		})
		_ = sink
	}

	dist, err := trace.NewClassDistribution(trace.High, rows)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	m := intmap.New(slots + reserve/2)
	present := make([]int64, 0, slots)
	for guard := 0; len(present) < slots && guard < 64*slots; guard++ {
		id := dist.Sample(rng)
		if _, _, existed := m.GetOrPut(id, -1); !existed {
			present = append(present, id)
		}
	}
	// Absent keys lie past the table's ID domain and apart from each
	// other, so none collides with a resident key or another absent one.
	absent := make([]int64, len(present))
	for i := range absent {
		absent[i] = rows + int64(i)<<20 + int64(rng.Intn(1<<20))
	}
	rounds := max(draws/len(present), 1)
	each := func(f func(i int)) float64 {
		return perOp(rounds*len(present), func() {
			for r := 0; r < rounds; r++ {
				for i := range present {
					f(i)
				}
			}
		})
	}
	var sink int32
	layer["intmap.get_ns"] = each(func(i int) { v, _ := m.Get(present[i]); sink += v })
	layer["intmap.get_miss_ns"] = each(func(i int) { v, _ := m.Get(absent[i]); sink += v })
	layer["intmap.getorput_ns"] = each(func(i int) { v, _, _ := m.GetOrPut(present[i], -1); sink += v })
	_ = sink

	// Insert and delete a batch's worth of fresh keys per round, the
	// fill/evict churn of one Plan. DeleteAt's backward shift relocates
	// entries; onMove keeps the reverse index current, as the scratchpad
	// does.
	churn := min(batchIDs, len(absent))
	m.Reserve(len(present) + churn)
	pos := make([]int, churn)
	onMove := func(val int32, newIdx int) {
		if val >= 0 {
			pos[val] = newIdx
		}
	}
	deleteAll := func() {
		for i := 0; i < churn; i++ {
			m.DeleteAt(pos[i], onMove)
		}
	}
	churnRounds := max(draws/churn, 1)
	var getorput, putidx, deleteat [chunks]float64
	for c := 0; c < chunks; c++ {
		var tGet, tPut, tDel time.Duration
		for r := 0; r < churnRounds; r++ {
			t0 := time.Now()
			for i := 0; i < churn; i++ {
				_, pos[i], _ = m.GetOrPut(absent[i], int32(i))
			}
			tGet += time.Since(t0)
			deleteAll()
			t0 = time.Now()
			for i := 0; i < churn; i++ {
				pos[i] = m.PutIdx(absent[i], int32(i))
			}
			tPut += time.Since(t0)
			t0 = time.Now()
			deleteAll()
			tDel += time.Since(t0)
		}
		ops := float64(churnRounds * churn)
		getorput[c] = float64(tGet.Nanoseconds()) / ops
		putidx[c] = float64(tPut.Nanoseconds()) / ops
		deleteat[c] = float64(tDel.Nanoseconds()) / ops
	}
	layer["intmap.getorput_miss_ns"] = median(getorput[:])
	layer["intmap.putidx_ns"] = median(putidx[:])
	layer["intmap.deleteat_ns"] = median(deleteat[:])
	if m.Len() != len(present) {
		return fmt.Errorf("intmap churn left %d entries, want %d", m.Len(), len(present))
	}

	ids := make([]int64, batchIDs)
	for i := range ids {
		ids[i] = dist.Sample(rng)
	}
	seen := intmap.New(batchIDs)
	var uniq []int64
	var cnt []int32
	dedupRounds := max(draws/batchIDs, 1)
	layer["intmap.dedup_ns_per_id"] = perOp(dedupRounds*batchIDs, func() {
		for r := 0; r < dedupRounds; r++ {
			uniq, cnt = intmap.Dedup(ids, seen, uniq[:0], cnt[:0])
		}
	})
	return nil
}

// idle zeroes every declared per-layer metric under the given prefixes
// that the workload does not exercise.
func idle(layer map[string]float64, sp *spec, prefixes ...string) {
	for _, d := range sp.PerLayer {
		for _, prefix := range prefixes {
			if _, set := layer[d.Name]; !set && strings.HasPrefix(d.Name, prefix) {
				layer[d.Name] = 0
			}
		}
	}
}
