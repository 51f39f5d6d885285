// Package scratchpipe is the public entry point of the ScratchPipe
// reproduction: a single facade over the training engines, trace
// generators, hardware model, and experiment harness in internal/.
//
// Quick start:
//
//	cfg := scratchpipe.Config{EnvConfig: scratchpipe.EnvConfig{Class: scratchpipe.High, Functional: true}}
//	tr, err := scratchpipe.NewTrainer(cfg)
//	...
//	rep, err := tr.Train(100)
//	fmt.Println(rep.IterTime, rep.AvgLoss)
//
// The five engine kinds mirror the paper's evaluation: the hybrid CPU-GPU
// baseline (Figure 4a), the static-cache baseline (Figure 4b), the
// unpipelined straw-man (§IV-B), pipelined ScratchPipe itself (§IV-C), and
// the 8-GPU model-parallel comparison system (§VI-F).
package scratchpipe

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dlrm"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/opt"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Kind selects a training engine.
type Kind string

// The five training-system design points.
const (
	KindHybrid      Kind = "hybrid"
	KindStatic      Kind = "static"
	KindStrawMan    Kind = "strawman"
	KindScratchPipe Kind = "scratchpipe"
	KindMultiGPU    Kind = "multigpu"
)

// Kinds lists every engine kind in the paper's presentation order.
var Kinds = []Kind{KindHybrid, KindStatic, KindStrawMan, KindScratchPipe, KindMultiGPU}

// Locality classes, re-exported for callers.
type Class = trace.Class

// The four locality classes of the paper's synthetic traces.
const (
	Random = trace.Random
	Low    = trace.Low
	Medium = trace.Medium
	High   = trace.High
)

// Classes lists all locality classes.
var Classes = trace.Classes

// ParseClass converts "Random"/"Low"/"Medium"/"High" to a Class.
func ParseClass(s string) (Class, error) { return trace.ParseClass(s) }

// ModelConfig is the DLRM architecture configuration.
type ModelConfig = dlrm.Config

// DefaultModel returns the paper's §V default model: 8 tables x 10M rows x
// 128-dim embeddings (40 GB), 20 lookups, batch 2048, MLPerf-DLRM MLPs.
func DefaultModel() ModelConfig { return dlrm.DefaultConfig() }

// SystemConfig is the hardware platform model.
type SystemConfig = hw.System

// DefaultSystem returns the paper's evaluation platform (Xeon E5-2698v4 +
// V100 over PCIe gen3).
func DefaultSystem() SystemConfig { return hw.DefaultSystem() }

// Topology is the general platform graph (nodes + tiered link matrix)
// scratchpad shards are placed on.
type Topology = hw.Topology

// ParseTopology resolves a topology name: "single", "numa<N>",
// "pcie<N>", "nvlink<N>", or "cluster<H>x<S>".
func ParseTopology(name string) (*Topology, error) { return hw.ParseTopology(name) }

// PlacementPolicy selects how shards spread across topology nodes.
type PlacementPolicy = hw.PlacementPolicy

// Shard placement policies.
const (
	PlaceStripe    = hw.PlaceStripe
	PlaceRange     = hw.PlaceRange
	PlaceLoadAware = hw.PlaceLoadAware
)

// CoordMode selects the cross-shard coordination protocol (see
// internal/shard): how the eviction-budget coordinator talks once
// shards are placed on different topology nodes.
type CoordMode = shard.CoordMode

// Coordination protocols, in traffic-escalation order: exact pays one
// round per eviction event; hier gathers each shard's candidates in one
// round per Plan through a per-host aggregation tier, so hosts exchange
// only host-level winners; approx quantizes recency epochs and sends no
// stamp-sync traffic at all, so its plans may diverge from exact.
const (
	CoordExact  = shard.CoordExact
	CoordHier   = shard.CoordHier
	CoordApprox = shard.CoordApprox
)

// CoordStats aggregates cross-node coordination traffic (see
// shard.CoordStats for field docs); Report.Coord carries the run's
// totals.
type CoordStats = shard.CoordStats

// OverlapStats counts overlapped-coordination outcomes under
// Config.CoordOverlap (see shard.OverlapStats); Report.Overlap carries
// the run's totals.
type OverlapStats = shard.OverlapStats

// ReshardSpec schedules run-time shard-count transitions (elastic
// resharding with live state migration; see engine.ReshardSpec and
// DESIGN.md §9): static "iter:shards" steps and/or a load-triggered
// growth policy reacting to observed query-mass skew.
type ReshardSpec = engine.ReshardSpec

// ReshardStep is one static reshard schedule entry.
type ReshardStep = engine.ReshardStep

// ReshardStats totals a run's reshard events, migrated state entries,
// and modeled migration cost (see shard.ReshardStats); Report.Resharding
// carries the run's totals and Report.MigrationTime their latency.
type ReshardStats = shard.ReshardStats

// ParseReshardSpec parses the -reshard flag grammar: "" (none),
// "200:4,500:8" (static steps), "load:8" / "load:8:2.5" (load-triggered
// growth), or a combination ("200:4,load:8").
func ParseReshardSpec(s string) (ReshardSpec, error) { return engine.ParseReshardSpec(s) }

// FaultPlan is a deterministic fault-injection schedule (see
// hw.FaultPlan): host deaths, link partitions/degradations, and
// aggregator losses pinned to iteration indices. The zero plan is
// guaranteed not to perturb a run.
type FaultPlan = hw.FaultPlan

// FaultEvent is one scheduled fault (see hw.FaultEvent).
type FaultEvent = hw.FaultEvent

// EvacStats totals a run's host-evacuation activity (see
// shard.EvacStats); Report.Evac carries the run's totals.
type EvacStats = shard.EvacStats

// ParseFaultPlan parses the -fail flag grammar: "" (no faults), or a
// comma-separated schedule like "host1@300,link:host0-host1@500-600",
// with event forms host<H>@<I>, agg<H>@<I>,
// link:host<A>-host<B>@<I>[-<J>],
// degrade:host<A>-host<B>@<I>[-<J>][x<F>], and — for serving plans
// (-serve-fail) — replica<R>@<T>[-<T2>] in virtual-clock seconds.
func ParseFaultPlan(s string) (FaultPlan, error) { return hw.ParseFaultPlan(s) }

// ServeOptions configures the online serving simulation (see
// serve.Options): replica count, routing policy, arrival process,
// queue bound, and per-replica cache fraction. The zero value keeps
// serving off.
type ServeOptions = serve.Options

// RouterPolicy names a serving routing policy.
type RouterPolicy = serve.Policy

// The routing policies, in sophistication order: random spreads
// blindly, roundrobin evenly, leastloaded by queue depth, hitaware by
// estimated cache overlap (tie-broken by queue depth), and
// hitaware-telemetry by the replicas' own published decayed hit rates
// instead of the router's send history.
const (
	RouterRandom     = serve.PolicyRandom
	RouterRoundRobin = serve.PolicyRoundRobin
	RouterLeastLoad  = serve.PolicyLeastLoaded
	RouterHitAware   = serve.PolicyHitAware
	RouterTelemetry  = serve.PolicyTelemetry
)

// ArrivalSpec describes a serving arrival process (see serve.ArrivalSpec).
type ArrivalSpec = serve.ArrivalSpec

// ParseArrival parses the -arrival flag grammar: "poisson:<qps>",
// "diurnal:<qps>[:<amp>]", or "flash:<qps>[:<mult>[:<at>:<dur>]]".
func ParseArrival(s string) (ArrivalSpec, error) { return serve.ParseArrival(s) }

// ServeReport summarizes one serving simulation (see serve.Report for
// field docs). The zero value is valid: serving-off runs carry it
// zero-valued, never nil.
type ServeReport = serve.Report

// RetrySpec bounds a serving client's retries after a failed attempt
// (see serve.RetrySpec): up to Max redispatches with exponential
// backoff to a replica the query has not tried. The zero spec disables
// retries.
type RetrySpec = serve.RetrySpec

// AdmissionSpec configures the serving frontend's admission controller
// (see serve.AdmissionSpec): shed by policy past a queue-depth
// threshold, optionally degrading rejections onto the CPU fallback
// path instead of losing them. The zero spec admits everything.
type AdmissionSpec = serve.AdmissionSpec

// AdmissionPolicy names an admission-controller shedding rule.
type AdmissionPolicy = serve.AdmissionPolicy

// Admission-controller shedding rules for AdmissionSpec.Policy.
const (
	// AdmitAll admits every arrival (queue caps still drop).
	AdmitAll = serve.AdmitAll
	// AdmitNewest sheds the incoming query once the chosen replica's
	// queue passes the admission threshold.
	AdmitNewest = serve.AdmitNewest
	// AdmitCheapest sheds past the threshold only when the query looks
	// cache-cheap on the router's view (mostly-warm queries lose the
	// least locality by being turned away).
	AdmitCheapest = serve.AdmitCheapest
)

// BatchSpec configures replica-side request batching (see
// serve.BatchSpec): each worker services up to Cap queued queries as
// one deduplicated batch, holding an undersized batch open at most
// Delay seconds. The zero spec (and Cap <= 1) disables batching.
type BatchSpec = serve.BatchSpec

// PolicyKind selects the scratchpad replacement policy.
type PolicyKind = cache.PolicyKind

// Replacement policies (§VI-E).
const (
	LRU          = cache.LRU
	LFU          = cache.LFU
	RandomPolicy = cache.RandomPolicy
)

// OptimizerKind selects the embedding optimizer.
type OptimizerKind = opt.Kind

// Embedding optimizers.
const (
	OptSGD     = opt.SGDKind
	OptAdagrad = opt.AdagradKind
)

// Report summarizes a training run (see engine.Report for field docs).
type Report = engine.Report

// EnvConfig is the run spec: model, platform, trace class, seed and the
// scale-out, fault and serving knobs (see engine.EnvConfig for field
// docs). Its zero Model and System select DefaultModel() and
// DefaultSystem() when a Trainer is built.
type EnvConfig = engine.EnvConfig

// Config assembles one training setup: the run spec plus the choice of
// engine and its cache.
type Config struct {
	EnvConfig
	// Engine picks the design point; empty selects KindScratchPipe.
	Engine Kind
	// CacheFrac sizes the GPU embedding cache as a fraction of each CPU
	// table for the cached engines; 0 selects the paper's headline 2%.
	CacheFrac float64
	// Policy is the dynamic-cache replacement policy (default LRU).
	// Shards > 1 requires LRU.
	Policy PolicyKind
	// Parallel runs ScratchPipe's pipeline stages in goroutines.
	Parallel bool
}

func (c *Config) applyDefaults() {
	if c.Engine == "" {
		c.Engine = KindScratchPipe
	}
	if c.Model.NumTables == 0 {
		c.Model = DefaultModel()
	}
	if c.System.NumGPUs == 0 {
		c.System = DefaultSystem()
	}
	if c.CacheFrac == 0 {
		c.CacheFrac = 0.02
	}
	if c.Policy == "" {
		c.Policy = LRU
	}
}

// Trainer drives one engine over one environment.
type Trainer struct {
	cfg Config
	env *engine.Env
	eng engine.Engine
}

// NewTrainer builds a training setup from cfg.
func NewTrainer(cfg Config) (*Trainer, error) {
	cfg.applyDefaults()
	env, err := engine.NewEnv(cfg.EnvConfig)
	if err != nil {
		return nil, err
	}
	var eng engine.Engine
	switch cfg.Engine {
	case KindHybrid:
		eng = engine.NewHybrid(env)
	case KindStatic:
		eng, err = engine.NewStaticCache(env, cfg.CacheFrac)
	case KindStrawMan:
		eng, err = engine.NewStrawMan(env, cfg.CacheFrac, cfg.Policy)
	case KindScratchPipe:
		eng, err = engine.NewScratchPipe(env, engine.ScratchPipeOptions{
			CacheFrac: cfg.CacheFrac,
			Policy:    cfg.Policy,
			Parallel:  cfg.Parallel,
		})
	case KindMultiGPU:
		eng, err = engine.NewMultiGPU(env)
	default:
		return nil, fmt.Errorf("scratchpipe: unknown engine kind %q", cfg.Engine)
	}
	if err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, env: env, eng: eng}, nil
}

// Config returns the trainer's configuration after defaulting.
func (t *Trainer) Config() Config { return t.cfg }

// Engine returns the engine name.
func (t *Trainer) Engine() string { return t.eng.Name() }

// Train runs iters training iterations and returns the report.
func (t *Trainer) Train(iters int) (*Report, error) { return t.eng.Run(iters) }

// Serve plays the configured online serving simulation (Config.Serve)
// over this trainer's model, trace class, topology, and shard knobs:
// replica workers holding reactive scratchpads answer an open-loop
// query stream behind the configured router. Training state is never
// touched. Returns an error if Config.Serve is inactive.
func (t *Trainer) Serve() (*ServeReport, error) {
	if !t.cfg.Serve.Active() {
		return nil, fmt.Errorf("scratchpipe: serving not configured (Config.Serve.Replicas == 0)")
	}
	return engine.RunServe(t.env)
}

// Flush writes GPU-cached dirty embedding rows back to the CPU tables
// (functional mode) so full model state can be inspected or compared.
func (t *Trainer) Flush() error {
	if f, ok := t.eng.(engine.FlushTables); ok {
		return f.Flush()
	}
	return nil
}

// SaveCheckpoint flushes engine caches and writes the complete training
// state (dense parameters, embedding tables, optimizer state) to w.
// Functional mode only.
func (t *Trainer) SaveCheckpoint(w io.Writer) error {
	if err := t.Flush(); err != nil {
		return err
	}
	return checkpoint.Save(w, t.env)
}

// LoadCheckpoint restores state written by SaveCheckpoint into this
// trainer's environment; the model configuration and optimizer must match.
func (t *Trainer) LoadCheckpoint(r io.Reader) error {
	return checkpoint.Load(r, t.env)
}

// PipelineStages re-exports the stage names for reports.
func PipelineStages() []string {
	out := make([]string, 0, len(core.Stages))
	for _, s := range core.Stages {
		out = append(out, s.String())
	}
	return out
}
