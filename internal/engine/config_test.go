package engine

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dlrm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
)

// parseRunFlags registers the shared flags on a fresh flag set over cfg,
// parses args and returns finish's verdict.
func parseRunFlags(t *testing.T, cfg *EnvConfig, args string) error {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	finish := cfg.RegisterFlags(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return finish()
}

func validConfig() EnvConfig {
	return EnvConfig{Model: dlrm.DefaultConfig(), System: hw.DefaultSystem()}
}

// TestRegisterFlags checks the rules finish applies: the protocol
// applies on any topology, topology and placement only on a multi-node
// graph, serving only under -serve (with ms converted to seconds), and
// the defaults come from the receiver.
func TestRegisterFlags(t *testing.T) {
	poisson := serve.ArrivalSpec{Shape: serve.ShapePoisson, Rate: 2000}
	for _, c := range []struct {
		args string
		ok   func(c EnvConfig) bool
	}{
		{"-shards 4 -coord hier", func(c EnvConfig) bool {
			return c.Coord == shard.CoordHier && c.Shards == 4 && c.Topology == nil && c.Placement == ""
		}},
		{"-shards 4 -topology cluster2x2 -placement range", func(c EnvConfig) bool {
			return c.Topology.Name == "cluster2x2" && c.Placement == hw.PlaceRange && c.Coord == shard.CoordExact
		}},
		{"", func(c EnvConfig) bool {
			return c.Workers == 1 && c.Shards == 1 && reflect.DeepEqual(c.Serve, serve.Options{})
		}},
		{"-serve -deadline 20 -hedge 5", func(c EnvConfig) bool {
			s := c.Serve
			return s.Replicas == 4 && s.Router == serve.PolicyHitAware && s.Arrival.String() == "poisson:2000" &&
				s.Deadline == 0.02 && s.Hedge == 0.005
		}},
	} {
		cfg := validConfig()
		cfg.Workers, cfg.Serve.Arrival = 1, poisson
		if err := parseRunFlags(t, &cfg, c.args); err != nil {
			t.Errorf("%q: %v", c.args, err)
		} else if !c.ok(cfg) {
			t.Errorf("%q: got %+v", c.args, cfg)
		}
	}
	cfg := validConfig()
	if err := parseRunFlags(t, &cfg, "-replicas 2"); err == nil || !strings.HasPrefix(err.Error(), "-replicas ") {
		t.Errorf("-replicas without -serve: err %v", err)
	}
}

// TestValidateNamesFlags: the cross-field checks that used to live in
// each command reject their inputs with errors naming the flag.
func TestValidateNamesFlags(t *testing.T) {
	plan, err := hw.ParseFaultPlan("host1@5")
	if err != nil {
		t.Fatal(err)
	}
	kill, err := hw.ParseFaultPlan("replica9@0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag   string
		mutate func(*EnvConfig)
	}{
		{"-fail", func(c *EnvConfig) { c.Faults = plan }},
		{"-fail", func(c *EnvConfig) { c.Faults = plan; c.Topology = hw.SingleNode() }},
		{"-serve-fail", func(c *EnvConfig) { c.Serve = serve.Options{Replicas: 4, Faults: kill} }},
		{"-shards", func(c *EnvConfig) { c.Shards = -1 }},
		{"-shards", func(c *EnvConfig) { c.Shards = shard.MaxShards + 1 }},
		{"-reshard", func(c *EnvConfig) { c.Reshard = ReshardSpec{LoadMax: shard.MaxShards + 1} }},
		{"-ckpt-interval", func(c *EnvConfig) { c.CkptInterval = -1 }},
		{"-coord", func(c *EnvConfig) { c.Coord = "bogus" }},
	} {
		cfg := validConfig()
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: Validate = %v, want an error naming %s", c.flag, err, c.flag)
		}
	}
	cfg := validConfig()
	cfg.Faults, cfg.Topology = plan, hw.Cluster(2, 2)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("host kill on a cluster: %v", err)
	}
}
