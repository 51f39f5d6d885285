package msgplane

import (
	"math"
	"runtime"
	"testing"
	"time"

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
	// Three peers funneling through exec node 0: the host goroutine
	// drains its inbox in order, so the makespan is the sum of the
	// crossing costs — the exact-protocol serialization property.
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

// TestExecuteZeroAllocs pins the launch path: per-phase host goroutines
// start through closures built at construction, so a warm Execute
// allocates nothing.
func TestExecuteZeroAllocs(t *testing.T) {
	p := New(hw.Cluster(2, 2))
	ops := phasedScript(4)
	if got := testing.AllocsPerRun(20, func() { p.Execute(ops[:16], ops[16:]) }); got != 0 {
		t.Fatalf("Execute allocated %v times per run, want 0", got)
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

func TestNoGoroutineLeak(t *testing.T) {
	topo := hw.Cluster(2, 2)
	p := New(topo)
	before := runtime.NumGoroutine()
	ops := []Op{round(0, 1, 64, 0), round(2, 3, 64, 0)}
	for i := 0; i < 100; i++ {
		p.Execute(ops, ops)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}
