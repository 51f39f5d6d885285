package msgplane

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hw"
)

const eps = 1e-12

func approx(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*math.Max(m, 1)
}

// round builds a full request/response round op.
func round(exec, peer int32, bytes float64, phase int32) Op {
	return Op{Exec: exec, Peer: peer, Bytes: bytes, Latency: true, Phase: phase}
}

func TestSingleRound(t *testing.T) {
	topo := hw.Cluster(2, 1) // two hosts, one socket each: net link
	p := New(topo)
	link := topo.Link(0, 1)
	want := link.Latency + 64/link.Bandwidth
	total, oend := p.Execute(nil, []Op{round(0, 1, 64, 0)})
	if !approx(total, want) {
		t.Fatalf("total = %g, want %g", total, want)
	}
	if oend != 0 {
		t.Fatalf("overlapEnd = %g, want 0 (no overlapped script)", oend)
	}
}

func TestSerializesThroughOneExec(t *testing.T) {
	// Three peers funneling through exec node 0: the exec queue serves
	// them in script order, so the makespan is the sum of the crossing
	// costs — the exact-protocol serialization property.
	topo := hw.Cluster(4, 1)
	p := New(topo)
	var ops []Op
	want := 0.0
	for peer := int32(1); peer <= 3; peer++ {
		ops = append(ops, round(0, peer, 128, 0))
		l := topo.Link(0, int(peer))
		want += l.Latency + 128/l.Bandwidth
	}
	total, _ := p.Execute(nil, ops)
	if !approx(total, want) {
		t.Fatalf("total = %g, want serialized sum %g", total, want)
	}
}

func TestParallelExecsOverlap(t *testing.T) {
	// Two independent exec hosts serve one round each in the same
	// phase: the makespan is the max, not the sum.
	topo := hw.Cluster(2, 2) // nodes 0,1 on host 0; 2,3 on host 1
	p := New(topo)
	ops := []Op{
		round(0, 2, 256, 0), // net crossing
		round(1, 3, 256, 0), // net crossing, disjoint endpoints
	}
	l := topo.Link(0, 2)
	want := l.Latency + 256/l.Bandwidth
	total, _ := p.Execute(nil, ops)
	if !approx(total, want) {
		t.Fatalf("total = %g, want parallel max %g", total, want)
	}
}

func TestPhaseBarrier(t *testing.T) {
	// A phase-1 op between endpoints untouched by phase 0 still waits
	// for its own clocks only; a phase-1 op reusing phase 0's endpoints
	// queues behind them. Both rounds on the same pair across phases
	// must therefore sum.
	topo := hw.Cluster(2, 1)
	p := New(topo)
	l := topo.Link(0, 1)
	one := l.Latency + 64/l.Bandwidth
	total, _ := p.Execute(nil, []Op{round(0, 1, 64, 0), round(0, 1, 64, 1)})
	if !approx(total, 2*one) {
		t.Fatalf("total = %g, want sequential %g", total, 2*one)
	}
}

func TestPhaseEntryClock(t *testing.T) {
	// Phase 0 lifts peer 3's clock to d0. In phase 1 peer 3 sends to two
	// different exec hosts: both requests are issued at 3's phase-entry
	// clock and overlap, so the makespan is d0 + max(d1, d2). Had the
	// first completion lifted 3's clock inside the phase, the second
	// request would queue behind it and the makespan would be
	// d0 + d1 + d2.
	topo := hw.Cluster(4, 1)
	p := New(topo)
	l := topo.Link(0, 3)
	cost := func(b float64) float64 { return l.Latency + b/l.Bandwidth }
	ops := []Op{round(0, 3, 64, 0), round(1, 3, 512, 1), round(2, 3, 256, 1)}
	want := cost(64) + cost(512)
	total, _ := p.Execute(nil, ops)
	if !approx(total, want) {
		t.Fatalf("total = %g, want %g (both phase-1 requests start at the peer's entry clock)", total, want)
	}
}

func TestOverlapSplit(t *testing.T) {
	// The overlapped script's makespan is reported as overlapEnd, and
	// critical ops start no earlier than that barrier even on idle
	// links: measured critical wall is total - overlapEnd.
	topo := hw.Cluster(2, 2)
	p := New(topo)
	over := []Op{round(0, 2, 512, 0)}
	crit := []Op{round(1, 3, 64, 0)}
	lo := topo.Link(0, 2)
	lc := topo.Link(1, 3)
	wantOver := lo.Latency + 512/lo.Bandwidth
	wantTotal := wantOver + lc.Latency + 64/lc.Bandwidth
	total, oend := p.Execute(over, crit)
	if !approx(oend, wantOver) {
		t.Fatalf("overlapEnd = %g, want %g", oend, wantOver)
	}
	if !approx(total, wantTotal) {
		t.Fatalf("total = %g, want %g", total, wantTotal)
	}
}

func TestLocalAndDownLinksAreFree(t *testing.T) {
	topo := hw.Cluster(2, 2)
	// Partition the cross-host pair (0,2).
	l := topo.Link(0, 2)
	l.Down = true
	topo.SetLink(0, 2, l)
	p := New(topo)
	ops := []Op{
		round(0, 0, 1024, 0), // self: free
		round(0, 2, 1024, 0), // down link: free, meter skips it too
	}
	total, _ := p.Execute(nil, ops)
	if total != 0 {
		t.Fatalf("total = %g, want 0 for local/down traffic", total)
	}
}

func TestNilPlane(t *testing.T) {
	var p *Plane
	total, oend := p.Execute(nil, []Op{round(0, 1, 64, 0)})
	if total != 0 || oend != 0 {
		t.Fatalf("nil plane Execute = (%g, %g), want (0, 0)", total, oend)
	}
	if s := p.Serial([]Op{round(0, 1, 64, 0)}); s != 0 {
		t.Fatalf("nil plane Serial = %g, want 0", s)
	}
	if New(nil) != nil {
		t.Fatal("New(nil topology) should return nil")
	}
}

func TestDeterministic(t *testing.T) {
	topo := hw.Cluster(2, 2)
	p := New(topo)
	ops := phasedScript(4)
	t1, o1 := p.Execute(ops[:16], ops[16:])
	for i := 0; i < 10; i++ {
		t2, o2 := p.Execute(ops[:16], ops[16:])
		if t1 != t2 || o1 != o2 {
			t.Fatalf("run %d: (%g, %g) != first run (%g, %g)", i, t2, o2, t1, o1)
		}
	}
	if t1 <= 0 || o1 <= 0 || o1 > t1 {
		t.Fatalf("implausible makespan: total %g, overlapEnd %g", t1, o1)
	}
}

// phasedScript is a 4-phase all-to-all script over the first n nodes.
func phasedScript(n int32) []Op {
	var ops []Op
	for ph := int32(0); ph < 4; ph++ {
		for e := int32(0); e < n; e++ {
			for peer := int32(0); peer < n; peer++ {
				ops = append(ops, round(e, peer, float64(64+8*peer), ph))
			}
		}
	}
	return ops
}

// TestExecuteZeroAllocs pins the per-Plan pricing path: a warm Execute
// and a warm Serial run on the plane's preallocated scratch alone.
func TestExecuteZeroAllocs(t *testing.T) {
	p := New(hw.Cluster(2, 2))
	ops := phasedScript(4)
	if got := testing.AllocsPerRun(20, func() { p.Execute(ops[:16], ops[16:]) }); got != 0 {
		t.Fatalf("Execute allocated %v times per run, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() { p.Serial(ops) }); got != 0 {
		t.Fatalf("Serial allocated %v times per run, want 0", got)
	}
}

func TestSerialMatchesLinkSum(t *testing.T) {
	topo := hw.Cluster(2, 2) // nodes 0,1 on host 0; 2,3 on host 1
	topo.SetLink(0, 1, hw.DefaultLink(hw.TierLocal))
	down := topo.Link(1, 3)
	down.Down = true
	topo.SetLink(1, 3, down)
	p := New(topo)
	ops := []Op{
		round(0, 2, 64, 0),
		{Exec: 0, Peer: 2, Bytes: 12, Phase: 0}, // rider: bytes, no round
		round(2, 3, 16, 0),
		round(0, 0, 4096, 1), // co-located endpoints: free
		round(1, 0, 4096, 1), // TierLocal link: free
		round(1, 3, 4096, 1), // down link: free
		round(2, 0, 32, 2),   // the (0,2) pair again, reversed
	}
	l02, l23 := topo.Link(0, 2), topo.Link(2, 3)
	want := 2*l02.Latency + 108/l02.Bandwidth
	want += 1*l23.Latency + 16/l23.Bandwidth
	if got := p.Serial(ops); got != want {
		t.Fatalf("Serial = %v, want %v", got, want)
	}
	if got := p.Serial(ops); got != want {
		t.Fatalf("second Serial = %v, want %v (tallies must reset)", got, want)
	}
}

// TestExecuteBoundedBySerial checks the queueing model against the
// serial price on random scripts: queueing can overlap links but never
// costs more than crossing them one after another, and a single
// exec-peer queue within one phase is exactly the serial sum.
func TestExecuteBoundedBySerial(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	leq := func(a, b float64) bool { return a <= b || approx(a, b) }
	for trial := 0; trial < 240; trial++ {
		topo := hw.Cluster(2, 2)
		if trial%2 == 1 {
			topo = hw.MultiSocket(4)
		}
		n := int32(topo.NumNodes())
		pair := func() (int32, int32) { a := rng.Int31n(n); return a, (a + 1 + rng.Int31n(n-1)) % n }
		if trial%3 == 0 {
			a, b := pair()
			l := topo.Link(int(a), int(b))
			l.Down = true
			topo.SetLink(int(a), int(b), l)
		}
		p := New(topo)
		// script draws k ops: random endpoints and phases, or one
		// exec-peer queue in phase 0.
		script := func(k int, exec, peer int32, random bool) []Op {
			var ops []Op
			phase := int32(0)
			for ; k > 0; k-- {
				if random {
					exec, peer = rng.Int31n(n), rng.Int31n(n)
					phase += int32(rng.Intn(2))
				}
				ops = append(ops, Op{Exec: exec, Peer: peer, Bytes: float64(8 + rng.Intn(512)), Latency: rng.Intn(4) != 0, Phase: phase})
			}
			return ops
		}
		over, crit := script(rng.Intn(40), 0, 0, true), script(rng.Intn(40), 0, 0, true)
		total, oend := p.Execute(over, crit)
		so, sc := p.Serial(over), p.Serial(crit)
		if !leq(oend, so) || !leq(total, so+sc) {
			t.Fatalf("trial %d on %s: Execute (%g, %g) exceeds Serial (%g, %g)", trial, topo.Name, total, oend, so+sc, so)
		}
		exec, peer := pair()
		queue := script(1+rng.Intn(20), exec, peer, false)
		total, _ = p.Execute(nil, queue)
		if s := p.Serial(queue); !approx(total, s) {
			t.Fatalf("trial %d on %s: one-queue Execute %g != Serial %g", trial, topo.Name, total, s)
		}
	}
}

// TestResetMatchesNew checks that a plane reset onto another topology,
// smaller or larger than the one it was built for, executes exactly
// like a fresh plane over that topology.
func TestResetMatchesNew(t *testing.T) {
	used := New(hw.Cluster(4, 1))
	used.Execute(nil, phasedScript(4))
	for _, topo := range []*hw.Topology{hw.Cluster(2, 1), hw.Cluster(2, 2), hw.Cluster(4, 2)} {
		used.Reset(topo)
		ops := phasedScript(int32(topo.NumNodes()))
		t1, o1 := used.Execute(ops[:len(ops)/4], ops[len(ops)/4:])
		t2, o2 := New(topo).Execute(ops[:len(ops)/4], ops[len(ops)/4:])
		if t1 != t2 || o1 != o2 {
			t.Fatalf("%s: reset plane (%g, %g), fresh plane (%g, %g)", topo.Name, t1, o1, t2, o2)
		}
	}
}

// TestSequentialSource pins the plane as plain sequential code: the
// queueing model is a max-plus recurrence, so nothing in the package may
// start a goroutine or declare a channel.
func TestSequentialSource(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.ChanType:
				t.Errorf("%s: channel type", fset.Position(n.Pos()))
			}
			return true
		})
	}
}
