package trace

import (
	"testing"
)

func testGenConfig() GeneratorConfig {
	return GeneratorConfig{
		NumTables:    3,
		RowsPerTable: 5000,
		Lookups:      4,
		BatchSize:    8,
		DenseDim:     5,
		Class:        Medium,
		Seed:         99,
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, err := NewGenerator(testGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(testGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Seq != i || b.Seq != i {
			t.Fatalf("seq %d/%d, want %d", a.Seq, b.Seq, i)
		}
		for tt := range a.Tables {
			for j := range a.Tables[tt] {
				if a.Tables[tt][j] != b.Tables[tt][j] {
					t.Fatalf("batch %d table %d id %d differs", i, tt, j)
				}
			}
		}
		for j := range a.Dense {
			if a.Dense[j] != b.Dense[j] {
				t.Fatalf("batch %d dense %d differs", i, j)
			}
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	g, err := NewGenerator(testGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := g.Next()
	if b.NumTables() != 3 {
		t.Errorf("NumTables = %d", b.NumTables())
	}
	if b.TotalIDs() != 32 {
		t.Errorf("TotalIDs = %d", b.TotalIDs())
	}
	if len(b.Dense) != 8*5 || len(b.Labels) != 8 {
		t.Errorf("dense %d labels %d", len(b.Dense), len(b.Labels))
	}
	for _, ids := range b.Tables {
		if len(ids) != 32 {
			t.Errorf("table ids %d", len(ids))
		}
		for _, id := range ids {
			if id < 0 || id >= 5000 {
				t.Errorf("id %d out of range", id)
			}
		}
	}
}

func TestGeneratorMetadataOnly(t *testing.T) {
	cfg := testGenConfig()
	cfg.MetadataOnly = true
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Next()
	if b.Dense != nil || b.Labels != nil {
		t.Error("metadata-only batch carries dense features")
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := []func(*GeneratorConfig){
		func(c *GeneratorConfig) { c.NumTables = 0 },
		func(c *GeneratorConfig) { c.RowsPerTable = 0 },
		func(c *GeneratorConfig) { c.Lookups = 0 },
		func(c *GeneratorConfig) { c.BatchSize = 0 },
		func(c *GeneratorConfig) { c.DenseDim = -1 },
		func(c *GeneratorConfig) {
			u, err := NewUniform(5000)
			if err != nil {
				t.Fatal(err)
			}
			c.Dists = []Distribution{u} // one distribution for three tables
		},
	}
	for i, mod := range bad {
		cfg := testGenConfig()
		mod(&cfg)
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestUniqueIDsFirstAppearanceOrder(t *testing.T) {
	b := &Batch{
		BatchSize: 2, Lookups: 3,
		Tables: [][]int64{{5, 3, 5, 9, 3, 1}},
	}
	got := b.UniqueIDs(0)
	want := []int64{5, 3, 9, 1}
	if len(got) != len(want) {
		t.Fatalf("unique = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unique = %v, want %v", got, want)
		}
	}
}

func TestLoaderWindow(t *testing.T) {
	g, err := NewGenerator(testGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Current().Seq != 0 || l.Peek(1).Seq != 1 || l.Peek(2).Seq != 2 {
		t.Fatalf("window seqs %d %d %d", l.Current().Seq, l.Peek(1).Seq, l.Peek(2).Seq)
	}
	got := l.Advance()
	if got.Seq != 0 {
		t.Fatalf("Advance returned seq %d", got.Seq)
	}
	if l.Current().Seq != 1 || l.Peek(2).Seq != 3 {
		t.Fatalf("after advance: %d %d", l.Current().Seq, l.Peek(2).Seq)
	}
}

func TestLoaderPeekBounds(t *testing.T) {
	g, _ := NewGenerator(testGenConfig())
	l, err := NewLoader(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Peek(2) beyond window did not panic")
		}
	}()
	l.Peek(2)
}

func TestDatasetsAndHistogram(t *testing.T) {
	for _, name := range DatasetNames {
		ds, err := NewDataset(name, 100000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ds.Tables) < 2 {
			t.Fatalf("%s: %d tables", name, len(ds.Tables))
		}
		for _, dt := range ds.Tables {
			h, err := CollectHistogram(dt.Dist, 50000, 100, 1)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, c := range h.BinCounts {
				total += c
			}
			if total != 50000 {
				t.Fatalf("%s/%s: histogram holds %d samples", name, dt.Name, total)
			}
			if h.TopShare(1) < 0.999 {
				t.Fatalf("%s/%s: TopShare(1) = %v", name, dt.Name, h.TopShare(1))
			}
			// The sorted head share can only exceed the positional
			// CDF (sorting pulls lucky tail rows forward), never
			// fall meaningfully below it.
			analytic := dt.Dist.CDF(0.02)
			sampled := h.TopShare(0.02)
			if sampled < analytic-0.03 {
				t.Errorf("%s/%s: sampled top-2%% %v below analytic %v", name, dt.Name, sampled, analytic)
			}
		}
	}
	if _, err := NewDataset("nope", 100); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestHitRateCurveMonotone: every static hit-rate curve the Figure 6
// tables print — the Medium class and each dataset table — rises from 0
// at an empty cache to 1 at a full one.
func TestHitRateCurveMonotone(t *testing.T) {
	dists := map[string]Distribution{"Medium": MustClassDistribution(Medium, 100000)}
	for _, name := range DatasetNames {
		ds, err := NewDataset(name, 10000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, dt := range ds.Tables {
			dists[name+"/"+dt.Name] = dt.Dist
		}
	}
	fracs := []float64{0, 0.02, 0.1, 0.5, 1}
	for name, d := range dists {
		curve := HitRateCurve(d, fracs)
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Fatalf("%s: hit rate decreasing: %v", name, curve)
			}
		}
		if curve[0] != 0 || curve[len(curve)-1] != 1 {
			t.Fatalf("%s: curve endpoints: %v", name, curve)
		}
	}
}

func TestStatsFor(t *testing.T) {
	b := &Batch{BatchSize: 2, Lookups: 2, Tables: [][]int64{{1, 1, 2, 3}}}
	s := StatsFor(b, 0)
	if s.TotalIDs != 4 || s.UniqueIDs != 3 {
		t.Fatalf("stats %+v", s)
	}
}
