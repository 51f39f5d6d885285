// Resharding schedules: when, and to how many shards, the
// dynamic-cache engines transition their per-table scratchpad managers
// at run time (shard.Manager.Reshard; DESIGN.md §9). Two triggers:
//
//   - a static schedule ("200:4,500:8"): step to the given shard count
//     before the batch with that sequence number is planned;
//   - a load policy ("load:8" / "load:8:2.5"): watch the tables'
//     fixed-granularity query-mass histograms and double the shard count
//     toward the cap whenever the observed ID-space skew exceeds the
//     threshold — the manager reacting to traffic it can see (a
//     locality shift concentrating mass on few hash buckets) instead
//     of a schedule written in advance.
//
// The reshard itself happens between Plans: state migrates with batches
// still in flight, plans and statistics are preserved exactly (the
// shard package's reshard equivalence suite), and the migrated bytes
// are priced on the environment's topology, surfacing as
// Report.MigrationTime.

package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/shard"
)

// ReshardStep is one static schedule entry: step to Shards shards
// before the batch with sequence number Iter is planned.
type ReshardStep struct {
	Iter   int
	Shards int
}

// DefaultLoadSkewThreshold is the load policy's trigger when the spec
// does not name one: grow when the busiest histogram bucket carries more
// than twice its fair share of the observed query mass.
const DefaultLoadSkewThreshold = 2.0

// loadCheckEvery is the load policy's sampling period in iterations.
const loadCheckEvery = 8

// loadBuckets is the fixed, shard-count-independent granularity of the
// load policy's query-mass histograms: occurrences bucket by
// shard.ShardOf(id, loadBuckets), so the policy observes ID-space skew
// even while S = 1, where per-shard counters are blind. The granularity
// bounds the hot-set size the histogram can resolve: a hot working set
// much larger than the bucket count hashes flat and reads as balanced
// (1024 buckets resolve the locality classes' hot sets at both quick
// and paper scale, for 8 KB per table).
const loadBuckets = 1024

// minLoadSample is the minimum observed query mass (occurrences across
// all tables since the last check) before the load policy trusts a
// skew estimate: below ~8 occurrences per histogram bucket the
// max-bucket statistic is sampling noise, not traffic shape, and acting
// on it would grow the shard count on uniform streams.
const minLoadSample = 8 * loadBuckets

// ReshardSpec is a reshard schedule for the dynamic-cache engines
// (strawman and ScratchPipe; the static and hybrid engines have no
// dynamic scratchpad and ignore it). The zero value disables resharding:
// every manager keeps its starting shard count. Any active spec requires
// the LRU policy.
type ReshardSpec struct {
	// Steps is the static schedule, ascending by Iter.
	Steps []ReshardStep
	// LoadMax enables the load-triggered policy when > 1: the shard
	// count doubles toward this cap whenever the observed query-mass
	// skew exceeds LoadThresh. Growth only; explicit Steps can shrink.
	LoadMax int
	// LoadThresh is the skew trigger (max histogram bucket / fair share);
	// 0 selects DefaultLoadSkewThreshold.
	LoadThresh float64
}

// Active reports whether the spec asks for any resharding.
func (s ReshardSpec) Active() bool { return len(s.Steps) > 0 || s.LoadMax > 1 }

// MaxShards returns the largest shard count the spec can reach (0 when
// inactive).
func (s ReshardSpec) MaxShards() int {
	max := s.LoadMax
	for _, st := range s.Steps {
		if st.Shards > max {
			max = st.Shards
		}
	}
	return max
}

// loadThresh resolves the skew trigger.
func (s ReshardSpec) loadThresh() float64 {
	if s.LoadThresh > 0 {
		return s.LoadThresh
	}
	return DefaultLoadSkewThreshold
}

// Validate reports a descriptive error for an unusable spec.
func (s ReshardSpec) Validate() error {
	last := -1
	for i, st := range s.Steps {
		if st.Iter < 0 {
			return fmt.Errorf("engine: reshard step %d: negative iteration %d", i, st.Iter)
		}
		if st.Iter <= last {
			return fmt.Errorf("engine: reshard step %d: iteration %d not after %d (steps must ascend)", i, st.Iter, last)
		}
		if st.Shards < 1 {
			return fmt.Errorf("engine: reshard step %d: %d shards", i, st.Shards)
		}
		last = st.Iter
	}
	if s.LoadMax < 0 || s.LoadMax == 1 {
		return fmt.Errorf("engine: reshard load cap %d (want 0 to disable or >= 2)", s.LoadMax)
	}
	if math.IsNaN(s.LoadThresh) || math.IsInf(s.LoadThresh, 0) || s.LoadThresh < 0 || (s.LoadThresh > 0 && s.LoadThresh <= 1) {
		return fmt.Errorf("engine: reshard load threshold %g (want 0 for the default or > 1)", s.LoadThresh)
	}
	return nil
}

// String renders the spec in the -reshard flag grammar (canonical: the
// benchmark history matches baselines on it). The zero spec renders "".
func (s ReshardSpec) String() string {
	var parts []string
	for _, st := range s.Steps {
		parts = append(parts, fmt.Sprintf("%d:%d", st.Iter, st.Shards))
	}
	if s.LoadMax > 1 {
		p := fmt.Sprintf("load:%d", s.LoadMax)
		if s.LoadThresh > 0 {
			p += fmt.Sprintf(":%g", s.LoadThresh)
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ",")
}

// ParseReshardSpec parses the -reshard flag grammar:
//
//	""                 no resharding (the zero spec)
//	"200:4,500:8"      static schedule: 4 shards at iteration 200, 8 at 500
//	"load:8"           load policy: double toward 8 shards on observed skew
//	"load:8:2.5"       same, with an explicit skew threshold
//	"200:4,load:8"     schedule and load policy combined
func ParseReshardSpec(text string) (ReshardSpec, error) {
	var spec ReshardSpec
	text = strings.TrimSpace(text)
	if text == "" {
		return spec, nil
	}
	for _, part := range strings.Split(text, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if fields[0] == "load" {
			if spec.LoadMax != 0 {
				return ReshardSpec{}, fmt.Errorf("engine: reshard spec %q: multiple load clauses", text)
			}
			if len(fields) < 2 || len(fields) > 3 {
				return ReshardSpec{}, fmt.Errorf("engine: reshard spec %q: want load:<max> or load:<max>:<thresh>", text)
			}
			max, err := strconv.Atoi(fields[1])
			if err != nil {
				return ReshardSpec{}, fmt.Errorf("engine: reshard spec %q: bad load cap %q", text, fields[1])
			}
			spec.LoadMax = max
			if len(fields) == 3 {
				th, err := strconv.ParseFloat(fields[2], 64)
				if err != nil {
					return ReshardSpec{}, fmt.Errorf("engine: reshard spec %q: bad load threshold %q", text, fields[2])
				}
				spec.LoadThresh = th
			}
			continue
		}
		if len(fields) != 2 {
			return ReshardSpec{}, fmt.Errorf("engine: reshard spec %q: want <iter>:<shards> steps or a load:<max> clause", text)
		}
		iter, err := strconv.Atoi(fields[0])
		if err != nil {
			return ReshardSpec{}, fmt.Errorf("engine: reshard spec %q: bad iteration %q", text, fields[0])
		}
		shards, err := strconv.Atoi(fields[1])
		if err != nil {
			return ReshardSpec{}, fmt.Errorf("engine: reshard spec %q: bad shard count %q", text, fields[1])
		}
		spec.Steps = append(spec.Steps, ReshardStep{Iter: iter, Shards: shards})
	}
	if err := spec.Validate(); err != nil {
		return ReshardSpec{}, err
	}
	return spec, nil
}

// maybeReshard runs the environment's reshard schedule for the batch
// about to be planned at iteration it: fire every static step whose
// time has come (the last one wins if several crossed), then consult
// the load policy on its sampling period. Called by the dynamic-cache
// engines at the top of each training iteration — between Plans, which
// is the boundary shard.Manager.Reshard requires.
func (d *dynamicState) maybeReshard(it int) error {
	spec := d.env.Cfg.Reshard
	if !spec.Active() {
		return nil
	}
	target := 0
	for d.reshardNext < len(spec.Steps) && spec.Steps[d.reshardNext].Iter <= it {
		target = spec.Steps[d.reshardNext].Shards
		d.reshardNext++
	}
	if target > 0 {
		// Same-S steps still execute: the manager treats them as priced
		// no-ops (bit-identical plans after the boundary), which is how
		// the equivalence tests pin the boundary itself.
		if err := d.reshardTo(target); err != nil {
			return err
		}
	}
	if spec.LoadMax > 1 && it > 0 && it%loadCheckEvery == 0 {
		cur := d.sps[0].Shards()
		if cur < spec.LoadMax {
			if skew := d.probeSkew(); skew > spec.loadThresh() {
				next := cur * 2
				if next > spec.LoadMax {
					next = spec.LoadMax
				}
				if err := d.reshardTo(next); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// observeLoad adds table t's Plan — its distinct IDs uniq with their
// multiplicities cnt (nil: one each) — to the table's query-mass
// histogram. Each table has its own, so the per-table Plan fan-out
// writes without sharing.
func (d *dynamicState) observeLoad(t int, uniq []int64, cnt []int32) {
	h := d.loads[t]
	for i, id := range uniq {
		c := int64(1)
		if cnt != nil {
			c = int64(cnt[i])
		}
		h[shard.ShardOf(id, loadBuckets)] += c
	}
}

// probeSkew returns the observed ID-space query-mass skew since the
// last check: the busiest histogram bucket's mass relative to its fair
// share, summed over all tables (1 = perfectly even, loadBuckets = all
// mass in one bucket), or 0 when the window holds too little mass to
// distinguish skew from sampling noise. The snapshot advances on every
// call.
func (d *dynamicState) probeSkew() float64 {
	if d.loadSnap == nil {
		d.loadSnap = make([]int64, loadBuckets)
	}
	cur := make([]int64, loadBuckets)
	for _, h := range d.loads {
		for i, v := range h {
			cur[i] += v
		}
	}
	var total, max int64
	for i, v := range cur {
		delta := v - d.loadSnap[i]
		total += delta
		if delta > max {
			max = delta
		}
	}
	copy(d.loadSnap, cur)
	if total < minLoadSample {
		return 0
	}
	return float64(loadBuckets) * float64(max) / float64(total)
}

// reshardTo transitions every table's manager to newS shards under the
// environment's topology and placement policy, accumulating the
// modeled migration latency.
func (d *dynamicState) reshardTo(newS int) error {
	for t, sp := range d.sps {
		place, err := placementFor(d.env, t, newS)
		if err != nil {
			return err
		}
		if err := sp.Reshard(newS, place); err != nil {
			return fmt.Errorf("engine: reshard table %d to %d shards: %w", t, newS, err)
		}
		d.migrationSecs += sp.LastReshardTime()
	}
	// The load snapshot stays: the histograms are bucket-keyed and
	// shard-count-independent, so their deltas remain valid across the
	// boundary (zeroing them would re-count already-acted-upon mass as
	// fresh skew on the next check).
	return nil
}
