package routing

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

func lp() topo.LinkParams { return topo.DefaultLinkParams() }

func TestNextPortsDecreaseDistance(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	tab := NewTableNet(h.Network)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		src := h.Endpoints[rng.Intn(len(h.Endpoints))]
		dst := h.Endpoints[rng.Intn(len(h.Endpoints))]
		if src == dst {
			continue
		}
		d := tab.Dist(dst)
		ports := tab.NextPorts(src, dst, nil)
		if len(ports) == 0 {
			t.Fatalf("no next ports from %d to %d", src, dst)
		}
		for _, pi := range ports {
			peer := h.Nodes[src].Ports[pi].To
			if d[peer] != d[src]-1 {
				t.Fatalf("port %d does not decrease distance", pi)
			}
		}
	}
}

func TestSamplePathIsShortestWalk(t *testing.T) {
	nets := []*topo.Network{
		topo.NewHxMesh(2, 2, 4, 4, lp()).Network,
		topo.NewFatTree(128, topo.NonblockingTree(), lp()),
		topo.NewTorus2D(8, 8, 2, 2, lp()),
		topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 5, LP: lp()}),
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range nets {
		tab := NewTableNet(n)
		for trial := 0; trial < 50; trial++ {
			src := n.Endpoints[rng.Intn(len(n.Endpoints))]
			dst := n.Endpoints[rng.Intn(len(n.Endpoints))]
			path := tab.SamplePath(src, dst, uint64(trial))
			if src == dst {
				if len(path) != 1 {
					t.Fatalf("%s: self path length %d", n.Name, len(path))
				}
				continue
			}
			if len(path) != tab.PathLen(src, dst)+1 {
				t.Fatalf("%s: path length %d != shortest %d", n.Name, len(path)-1, tab.PathLen(src, dst))
			}
			// Consecutive nodes must be adjacent.
			for i := 0; i+1 < len(path); i++ {
				adj := false
				for _, p := range n.Nodes[path[i]].Ports {
					if p.To == path[i+1] {
						adj = true
						break
					}
				}
				if !adj {
					t.Fatalf("%s: path nodes %d,%d not adjacent", n.Name, path[i], path[i+1])
				}
			}
		}
	}
}

func TestHxMeshIntermediateBoardPath(t *testing.T) {
	// Cross-row cross-column traffic must pass through an intermediate
	// board's accelerators or through two dimension networks (§IV-C2).
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	tab := NewTableNet(h.Network)
	src := h.Accel(0, 0) // board (0,0)
	dst := h.Accel(7, 7) // board (3,3)
	path := tab.SamplePath(src, dst, 3)
	switches := 0
	for _, id := range path {
		if h.Nodes[id].Kind == topo.Switch {
			switches++
		}
	}
	if switches != 2 {
		t.Errorf("cross-row-column path crosses %d dimension networks, want 2 (path %v)", switches, path)
	}
}

func TestVCPolicyBounded(t *testing.T) {
	// Property: along any sampled path, the VC never exceeds MaxVCs-1 and
	// never decreases.
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	tab := NewTableNet(h.Network)
	f := func(s8, d8 uint8, seed uint64) bool {
		src := h.Endpoints[int(s8)%len(h.Endpoints)]
		dst := h.Endpoints[int(d8)%len(h.Endpoints)]
		path := tab.SamplePath(src, dst, seed)
		vc := int8(0)
		for i := 0; i+1 < len(path); i++ {
			nvc := VCPolicy(tab.C, int32(path[i]), int32(path[i+1]), vc)
			if nvc < vc || nvc >= MaxVCs {
				return false
			}
			vc = nvc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNextPortsVia(t *testing.T) {
	n := topo.NewDragonfly(topo.DragonflyConfig{A: 4, P: 2, H: 2, G: 5, LP: lp()})
	tab := NewTableNet(n)
	src, mid, dst := n.Endpoints[0], n.Endpoints[20], n.Endpoints[39]
	// Walk hop by hop via mid; total hops must equal d(src,mid)+d(mid,dst).
	at, reached := src, false
	hops := 0
	for at != dst && hops < 100 {
		var ports []int
		ports, reached = tab.NextPortsVia(at, mid, dst, reached, nil)
		if len(ports) == 0 {
			t.Fatal("stuck")
		}
		at = n.Nodes[at].Ports[ports[0]].To
		hops++
	}
	want := tab.PathLen(src, mid) + tab.PathLen(mid, dst)
	if hops != want {
		t.Errorf("valiant walk took %d hops, want %d", hops, want)
	}
}

func TestPrecompute(t *testing.T) {
	h := topo.NewHxMesh(1, 1, 4, 4, lp())
	tab := NewTableNet(h.Network)
	tab.PrecomputeParallel(h.Endpoints, 1)
	cached := 0
	for i := range tab.dist {
		if tab.dist[i].Load() != nil {
			cached++
		}
	}
	if cached != len(h.Endpoints) {
		t.Errorf("precomputed %d vectors, want %d", cached, len(h.Endpoints))
	}
}

func TestMaskedTableRoutesAroundFailures(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	c := simcore.Of(h.Network)
	// Fail one cable (both directions) of endpoint 0 and verify routes
	// avoid it while everything stays reachable.
	pid := c.PortID(0, 0)
	mask := simcore.NewPortMask(c.NumPorts())
	mask.Set(pid)
	mask.Set(c.Ports[pid].Rev)
	tab := NewTableMask(c, mask)
	for _, dst := range h.Endpoints {
		if dst == 0 {
			continue
		}
		cands, err := tab.CandidatesErr(0, dst)
		if err != nil {
			t.Fatalf("dst %d unreachable after one link failure: %v", dst, err)
		}
		for _, ci := range cands {
			if ci == pid {
				t.Fatalf("candidates toward %d include masked port %d", dst, pid)
			}
		}
	}
	if got := tab.SamplePath(0, h.Endpoints[5], 3); got == nil {
		t.Fatal("sample path nil on reachable pair")
	}
}

func TestUnreachableIsTypedError(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	c := simcore.Of(h.Network)
	// Mask every port of endpoint 7 in both directions: it is cut off.
	mask := simcore.NewPortMask(c.NumPorts())
	off, end := c.PortRange(7)
	for pid := off; pid < end; pid++ {
		mask.Set(pid)
		mask.Set(c.Ports[pid].Rev)
	}
	tab := NewTableMask(c, mask)
	if tab.Reachable(0, 7) {
		t.Fatal("cut-off endpoint reported reachable")
	}
	var unreach *ErrUnreachable
	if _, err := tab.CandidatesErr(0, 7); !errors.As(err, &unreach) {
		t.Fatalf("CandidatesErr = %v, want *ErrUnreachable", err)
	}
	if unreach.From != 0 || unreach.To != 7 {
		t.Fatalf("error carries %d->%d, want 0->7", unreach.From, unreach.To)
	}
	if _, err := tab.SamplePathErr(0, 7, 1); !errors.As(err, &unreach) {
		t.Fatalf("SamplePathErr = %v, want *ErrUnreachable", err)
	}
	if _, err := tab.NextPortsErr(0, 7, nil); !errors.As(err, &unreach) {
		t.Fatalf("NextPortsErr = %v, want *ErrUnreachable", err)
	}
	if got := tab.PathLen(0, 7); got != -1 {
		t.Fatalf("PathLen = %d, want -1", got)
	}
}

// dagWalk is the reference path sampler: the same rng draw sequence as
// AppendSamplePathPorts, picking among the ports of the candidate DAG
// that Table.Candidates compiles for the packet simulator.
func dagWalk(t *Table, src, dst topo.NodeID, seed uint64) ([]topo.NodeID, []int32, error) {
	if !t.Reachable(src, dst) {
		return nil, nil, &ErrUnreachable{From: src, To: dst}
	}
	path, ports := []topo.NodeID{src}, []int32{}
	at, rng := int32(src), seed
	for at != int32(dst) {
		cands := t.Candidates(at, dst)
		if len(cands) == 0 {
			return nil, nil, &ErrUnreachable{From: topo.NodeID(at), To: dst}
		}
		rng = rng*6364136223846793005 + 1442695040888963407
		chosen := cands[int(rng>>33)%len(cands)]
		at = t.C.Ports[chosen].To
		path = append(path, topo.NodeID(at))
		ports = append(ports, chosen)
	}
	return path, ports, nil
}

// TestSamplePathScanMatchesDAG pins the sampler's adjacency scan against a
// walk over the candidate DAGs the packet simulator uses: for equal seeds
// both must produce identical paths and port choices, on pristine and
// masked fabrics — so the flow and packet paths agree on the route set
// without the flow path caching any DAG.
func TestSamplePathScanMatchesDAG(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	c := simcore.Compile(h.Network)
	mask := simcore.NewPortMask(c.NumPorts())
	mask.Set(c.PortID(int32(c.Switches[0]), 1))
	for _, m := range []simcore.PortMask{nil, mask} {
		tab := NewTableMask(c, m)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			src := h.Endpoints[rng.Intn(len(h.Endpoints))]
			dst := h.Endpoints[rng.Intn(len(h.Endpoints))]
			if src == dst {
				continue
			}
			seed := rng.Uint64()
			p1, ports1, err1 := dagWalk(tab, src, dst, seed)
			p2, ports2, err2 := tab.AppendSamplePathPorts(nil, []int32{}, src, dst, seed)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d: err mismatch %v vs %v", trial, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if len(p1) != len(p2) {
				t.Fatalf("trial %d: path len %d vs %d", trial, len(p1), len(p2))
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("trial %d hop %d: node %d vs %d", trial, i, p1[i], p2[i])
				}
			}
			for i := range ports1 {
				if ports1[i] != ports2[i] {
					t.Fatalf("trial %d hop %d: port %d vs %d", trial, i, ports1[i], ports2[i])
				}
			}
		}
	}
}

// TestSamplePathScanWideFanout exercises the scan's rescan branch for nodes
// whose minimal fan-out overflows the fixed candidate buffer (>64
// candidates — trunked links), pinning it against the DAG walk.
func TestSamplePathScanWideFanout(t *testing.T) {
	n := &topo.Network{Name: "widefanout"}
	src := n.AddNode(topo.Endpoint)
	a := n.AddNode(topo.Switch)
	b := n.AddNode(topo.Switch)
	dst := n.AddNode(topo.Endpoint)
	n.Link(src, a, topo.PCB, 50, 20)
	for i := 0; i < 70; i++ {
		n.Link(a, b, topo.PCB, 50, 20) // 70-wide trunk: fan-out > cbuf
	}
	n.Link(b, dst, topo.PCB, 50, 20)
	c := simcore.Compile(n)
	tab := NewTableMask(c, nil)
	sawRescan := false
	for seed := uint64(0); seed < 300; seed++ {
		p1, ports1, err1 := dagWalk(tab, src, dst, seed)
		p2, ports2, err2 := tab.AppendSamplePathPorts(nil, []int32{}, src, dst, seed)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: errors %v / %v", seed, err1, err2)
		}
		if len(p1) != 4 || len(p2) != 4 {
			t.Fatalf("seed %d: path lengths %d/%d, want 4", seed, len(p1), len(p2))
		}
		for i := range ports1 {
			if ports1[i] != ports2[i] {
				t.Fatalf("seed %d hop %d: DAG port %d != scan port %d", seed, i, ports1[i], ports2[i])
			}
		}
		// The trunk hop's pick lands past the 64-entry buffer for ~6/70 of
		// the seeds, driving the rescan branch.
		if trunkPort := ports1[1] - c.PortID(int32(a), 0); trunkPort >= 64 {
			sawRescan = true
		}
	}
	if !sawRescan {
		t.Fatal("no seed exercised the >64-candidate rescan branch")
	}
}

// TestPrecomputeParallelMatchesLazy pins the batched warm-up against the
// lazy per-destination BFS: tables warmed with 1, 2 and 8 workers hold the
// vectors Dist computes on demand, entry for entry, on pristine and masked
// fabrics, with more destinations than one 64-wide batch, duplicate
// destinations, and a partly warm table whose cached vectors stay in place.
func TestPrecomputeParallelMatchesLazy(t *testing.T) {
	nets := []*topo.Network{
		topo.NewHxMesh(2, 2, 4, 4, lp()).Network,
		topo.NewTorus2D(8, 8, 2, 2, lp()),
	}
	for _, n := range nets {
		c := simcore.Compile(n)
		mask := simcore.NewPortMask(c.NumPorts())
		rng := rand.New(rand.NewSource(3))
		for k := 0; k < c.NumPorts()/10; k++ {
			mask.Set(int32(rng.Intn(c.NumPorts()))) // one-direction faults
		}
		// Every node is a destination (endpoints and switches), listed
		// twice in shuffled order.
		dsts := make([]topo.NodeID, 0, 2*c.NumNodes())
		for v := 0; v < c.NumNodes(); v++ {
			dsts = append(dsts, topo.NodeID(v), topo.NodeID(v))
		}
		rng.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
		for _, m := range []simcore.PortMask{nil, mask} {
			lazy := NewTableMask(c, m)
			for _, workers := range []int{1, 2, 8} {
				warm := NewTableMask(c, m)
				pre := map[topo.NodeID]*[]int32{}
				if workers == 2 {
					for _, d := range dsts[:10] {
						warm.Dist(d)
						pre[d] = warm.dist[d].Load()
					}
				}
				warm.PrecomputeParallel(dsts, workers)
				for d, p := range pre {
					if warm.dist[d].Load() != p {
						t.Fatalf("%s: warm-up replaced the cached vector of %d", n.Name, d)
					}
				}
				for v := 0; v < c.NumNodes(); v++ {
					got := warm.dist[v].Load()
					if got == nil {
						t.Fatalf("%s workers=%d: vector %d not warmed", n.Name, workers, v)
					}
					want := lazy.Dist(topo.NodeID(v))
					for u := range want {
						if (*got)[u] != want[u] {
							t.Fatalf("%s workers=%d masked=%v: dist[%d][%d] = %d, lazy %d",
								n.Name, workers, m != nil, v, u, (*got)[u], want[u])
						}
					}
				}
			}
		}
	}
}
