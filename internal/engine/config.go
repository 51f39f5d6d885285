package engine

import (
	"cmp"
	"flag"
	"fmt"
	"slices"

	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
)

// Validate reports the first unusable knob of c, or nil. It is the one
// check of a run spec: NewEnv calls it, and so does the finish step of
// RegisterFlags. An error on a field that a RegisterFlags flag sets names
// that flag; errors from Model.Validate, System.Validate and
// Serve.Validate pass through unchanged, since those fields are set in
// code or by a command's own flags (dlrmtrain's -rows, -batch, ...).
func (c EnvConfig) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.System.Validate(); err != nil {
		return err
	}
	if c.Shards < 0 || c.Shards > shard.MaxShards {
		return fmt.Errorf("-shards %d: shard count must be in 0..%d", c.Shards, shard.MaxShards)
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return fmt.Errorf("-topology %q: %w", c.Topology.Name, err)
		}
	}
	if _, err := hw.ParsePlacementPolicy(string(c.Placement)); err != nil {
		return fmt.Errorf("-placement %q: %w", c.Placement, err)
	}
	if _, err := shard.ParseCoordMode(string(c.Coord)); err != nil {
		return fmt.Errorf("-coord %q: %w", c.Coord, err)
	}
	if err := c.Reshard.Validate(); err != nil {
		return fmt.Errorf("-reshard %q: %w", c.Reshard, err)
	}
	if n := c.Reshard.MaxShards(); n > shard.MaxShards {
		return fmt.Errorf("-reshard %q: reaches %d shards, above the maximum %d", c.Reshard, n, shard.MaxShards)
	}
	if c.CkptInterval < 0 {
		return fmt.Errorf("-ckpt-interval %d: interval must be >= 0", c.CkptInterval)
	}
	if c.Faults.Active() {
		if c.Topology == nil || c.Topology.NumNodes() <= 1 {
			return fmt.Errorf("-fail %q: needs a multi-host -topology (cluster<H>x<S>)", c.Faults)
		}
		if err := c.Faults.Validate(c.Topology); err != nil {
			return fmt.Errorf("-fail %q: %w", c.Faults, err)
		}
	}
	if err := c.Serve.Validate(); err != nil {
		return err
	}
	if c.Serve.Active() {
		if err := c.Serve.Faults.ValidateServe(c.Serve.Replicas, c.Topology); err != nil {
			return fmt.Errorf("-serve-fail %q: %w", c.Serve.Faults, err)
		}
	}
	return nil
}

// servingFlags are the flags that configure serving and so need -serve.
var servingFlags = []string{"replicas", "router", "arrival", "serve-fail", "deadline", "retry", "hedge", "admission", "serve-batch"}

// RegisterFlags registers on fs the run knobs that spbench, dlrmtrain and
// benchgate share. Each flag defaults to the receiver's current value;
// with serving off, -replicas and -router default to 4 and hitaware.
//
// Call the returned finish after fs.Parse. It parses the flags into c and
// applies the rules every command follows: -shards is at least 1;
// Topology and Placement are kept only on a multi-node graph; the serving
// options apply only under -serve, and setting a serving flag without
// -serve is an error; -deadline and -hedge convert from milliseconds.
// Then it returns c.Validate(). Every error on one of these flags names it.
func (c *EnvConfig) RegisterFlags(fs *flag.FlagSet) (finish func() error) {
	topoName := "single"
	if c.Topology != nil {
		topoName = c.Topology.Name
	}
	s := c.Serve
	if !s.Active() {
		s.Replicas = 4
	}
	s.Router = cmp.Or(s.Router, serve.PolicyHitAware)

	fs.IntVar(&c.Workers, "workers", c.Workers, "per-table fan-out parallelism (0 = GOMAXPROCS, 1 = serial); results bit-identical at any value")
	fs.IntVar(&c.Shards, "shards", max(c.Shards, 1), "scratchpad shards per table (1 = unsharded; results identical at any count; S>1 needs the LRU policy)")
	topology := fs.String("topology", topoName, "shard placement topology ("+hw.TopologyNames+")")
	placement := fs.String("placement", string(cmp.Or(c.Placement, hw.PlaceStripe)), "shard placement policy (stripe|range|loadaware)")
	coord := fs.String("coord", string(cmp.Or(c.Coord, shard.CoordExact)), "cross-shard coordination protocol ("+shard.CoordModeNames+")")
	fs.BoolVar(&c.CoordOverlap, "coord-overlap", c.CoordOverlap, "overlap ScratchPipe's distributed coordination with the pipeline (bit-identical plans; shrinks the Plan-stage coordination share)")
	reshard := fs.String("reshard", c.Reshard.String(), "elastic reshard schedule: iter:shards steps and/or load:<max>[:<thresh>] (e.g. 200:4,500:8 or load:8; empty = fixed sharding)")
	fail := fs.String("fail", c.Faults.String(), "fault schedule for the dynamic-cache engines ("+hw.FaultGrammar+"; empty = no faults)")
	fs.IntVar(&c.CkptInterval, "ckpt-interval", c.CkptInterval, "priced scratchpad checkpoint flush every N iterations (0 = disabled; with -fail, host deaths restore residency from the last flush)")
	serveMode := fs.Bool("serve", c.Serve.Active(), "configure the online serving simulation (internal/serve); dlrmtrain then serves instead of training")
	fs.IntVar(&s.Replicas, "replicas", s.Replicas, "serving replica workers (with -serve)")
	router := fs.String("router", string(s.Router), "serving router policy: "+serve.PolicyNames+" (with -serve)")
	arrival := fs.String("arrival", s.Arrival.String(), "serving arrival process: "+serve.ArrivalGrammar+" (with -serve; empty = poisson default)")
	serveFail := fs.String("serve-fail", s.Faults.String(), "serving fault schedule: "+serve.ServeFaultGrammar+", times in virtual-clock seconds (with -serve; empty = no faults)")
	deadline := fs.Float64("deadline", s.Deadline*1e3, "per-query deadline in ms; responses past it count as timed out (with -serve; 0 = none)")
	retry := fs.String("retry", s.Retry.String(), "client retry policy: "+serve.RetryGrammar+", exponential backoff to a different replica (with -serve; empty = no retries)")
	hedge := fs.Float64("hedge", s.Hedge*1e3, "hedged-request delay in ms; a backup attempt fires on another replica if no response by then (with -serve; 0 = no hedging)")
	admission := fs.String("admission", s.Admission.String(), "admission control: "+serve.AdmissionGrammar+" (with -serve; empty = admit all)")
	batch := fs.String("serve-batch", s.Batch.String(), "replica-side request batching: "+serve.BatchGrammar+" (with -serve; empty or 1 = no batching)")

	return func() error {
		var topo *hw.Topology
		var place hw.PlacementPolicy
		var err error
		parseFlag(&err, "topology", *topology, hw.ParseTopology, &topo)
		parseFlag(&err, "placement", *placement, hw.ParsePlacementPolicy, &place)
		parseFlag(&err, "coord", *coord, shard.ParseCoordMode, &c.Coord)
		parseFlag(&err, "reshard", *reshard, ParseReshardSpec, &c.Reshard)
		parseFlag(&err, "fail", *fail, hw.ParseFaultPlan, &c.Faults)
		parseFlag(&err, "router", *router, serve.ParsePolicy, &s.Router)
		parseFlag(&err, "arrival", *arrival, serve.ParseArrival, &s.Arrival)
		parseFlag(&err, "serve-fail", *serveFail, hw.ParseFaultPlan, &s.Faults)
		parseFlag(&err, "retry", *retry, serve.ParseRetry, &s.Retry)
		parseFlag(&err, "admission", *admission, serve.ParseAdmission, &s.Admission)
		parseFlag(&err, "serve-batch", *batch, serve.ParseBatch, &s.Batch)
		switch {
		case err != nil:
			return err
		case c.Shards < 1:
			return fmt.Errorf("-shards %d: shard count must be >= 1", c.Shards)
		case *deadline < 0:
			return fmt.Errorf("-deadline %g: deadline must be >= 0 ms", *deadline)
		case *hedge < 0:
			return fmt.Errorf("-hedge %g: hedge delay must be >= 0 ms", *hedge)
		case *serveMode && s.Replicas < 1:
			return fmt.Errorf("-replicas %d: serving needs at least one replica", s.Replicas)
		}
		if !*serveMode {
			fs.Visit(func(f *flag.Flag) {
				if err == nil && slices.Contains(servingFlags, f.Name) {
					err = fmt.Errorf("-%s only applies with -serve", f.Name)
				}
			})
			if err != nil {
				return err
			}
		}

		c.Topology, c.Placement = nil, ""
		if topo.NumNodes() > 1 {
			c.Topology, c.Placement = topo, place
		}
		c.Serve = serve.Options{}
		if *serveMode {
			s.Deadline, s.Hedge = *deadline*1e-3, *hedge*1e-3
			c.Serve = s
		}
		return c.Validate()
	}
}

// parseFlag parses text, the value of flag -name, into *dst. It does
// nothing once *err is set, and sets *err, naming the flag, when parse
// fails.
func parseFlag[T any](err *error, name, text string, parse func(string) (T, error), dst *T) {
	if *err != nil {
		return
	}
	v, perr := parse(text)
	if perr != nil {
		*err = fmt.Errorf("-%s %q: %w", name, text, perr)
		return
	}
	*dst = v
}
