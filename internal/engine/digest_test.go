package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/embed"
	"repro/internal/hw"
	"repro/internal/opt"
	"repro/internal/trace"
)

// modelStateDigest hashes the Float32bits of env's embedding tables, its
// optimizer-state tables and its dense parameters, in that order.
func modelStateDigest(env *Env) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(ws []float32) {
		for _, w := range ws {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(w))
			h.Write(buf[:])
		}
	}
	tables := func(ts []*embed.Table) {
		for _, tbl := range ts {
			for id := int64(0); id < tbl.Rows(); id++ {
				put(tbl.Row(id))
			}
		}
	}
	tables(env.Tables)
	tables(env.StateTables)
	for _, p := range env.Model.Params() {
		put(p.Weights())
	}
	return h.Sum64()
}

// TestHybridWeightsDigest pins the float program itself. Every engine's
// equivalence test compares against hybrid, so a change that moved
// hybrid's arithmetic along with everyone else's would pass them all;
// these digests of hybrid's model state after 30 iterations would not.
func TestHybridWeightsDigest(t *testing.T) {
	want := map[opt.Kind]uint64{
		opt.SGDKind:     0xe50d79a15a06a622,
		opt.AdagradKind: 0x6da71b02593df334,
	}
	for kind, digest := range want {
		env, err := NewEnv(EnvConfig{
			Model:      smallModel(),
			System:     hw.DefaultSystem(),
			Class:      trace.Medium,
			Seed:       7,
			Functional: true,
			Optimizer:  kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		runAndFlush(t, NewHybrid(env), 30)
		if got := modelStateDigest(env); got != digest {
			t.Errorf("%s: model-state digest %#016x, want %#016x", kind, got, digest)
		}
	}
}
