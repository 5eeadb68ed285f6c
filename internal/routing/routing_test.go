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

// newTable builds a pristine table straight from a network.
func newTable(n *topo.Network) *Table { return NewTable(simcore.Of(n)) }

// samplePath is AppendSamplePathPorts into fresh buffers, without ports.
func samplePath(t *Table, src, dst topo.NodeID, seed uint64) ([]topo.NodeID, error) {
	path, _, err := t.AppendSamplePathPorts(nil, nil, src, dst, seed)
	return path, err
}

func TestCandidatesDecreaseDistance(t *testing.T) {
	h := topo.NewHxMesh(2, 2, 4, 4, lp())
	tab := newTable(h.Network)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		src := h.Endpoints[rng.Intn(len(h.Endpoints))]
		dst := h.Endpoints[rng.Intn(len(h.Endpoints))]
		if src == dst {
			continue
		}
		d := tab.Dist(dst)
		ports := tab.Candidates(int32(src), dst)
		if len(ports) == 0 {
			t.Fatalf("no next ports from %d to %d", src, dst)
		}
		for _, pid := range ports {
			peer := tab.C.Ports[pid].To
			if d[peer] != d[src]-1 {
				t.Fatalf("port %d does not decrease distance", pid)
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
		tab := newTable(n)
		for trial := 0; trial < 50; trial++ {
			src := n.Endpoints[rng.Intn(len(n.Endpoints))]
			dst := n.Endpoints[rng.Intn(len(n.Endpoints))]
			path, err := samplePath(tab, src, dst, uint64(trial))
			if err != nil {
				t.Fatalf("%s: %v", n.Name, err)
			}
			if src == dst {
				if len(path) != 1 {
					t.Fatalf("%s: self path length %d", n.Name, len(path))
				}
				continue
			}
			if want := int(tab.Dist(dst)[src]); len(path) != want+1 {
				t.Fatalf("%s: path length %d != shortest %d", n.Name, len(path)-1, want)
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
	tab := newTable(h.Network)
	src := h.Accel(0, 0) // board (0,0)
	dst := h.Accel(7, 7) // board (3,3)
	path, err := samplePath(tab, src, dst, 3)
	if err != nil {
		t.Fatal(err)
	}
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
	tab := newTable(h.Network)
	f := func(s8, d8 uint8, seed uint64) bool {
		src := h.Endpoints[int(s8)%len(h.Endpoints)]
		dst := h.Endpoints[int(d8)%len(h.Endpoints)]
		path, err := samplePath(tab, src, dst, seed)
		if err != nil {
			return false
		}
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

func TestPrecompute(t *testing.T) {
	h := topo.NewHxMesh(1, 1, 4, 4, lp())
	tab := newTable(h.Network)
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
		cands := tab.Candidates(0, dst)
		if len(cands) == 0 {
			t.Fatalf("dst %d unreachable after one link failure", dst)
		}
		for _, ci := range cands {
			if ci == pid {
				t.Fatalf("candidates toward %d include masked port %d", dst, pid)
			}
		}
	}
	if got, err := samplePath(tab, 0, h.Endpoints[5], 3); got == nil || err != nil {
		t.Fatalf("sample path %v, %v on reachable pair", got, err)
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
	if got := tab.Candidates(0, 7); len(got) != 0 {
		t.Fatalf("Candidates toward a cut-off endpoint = %v, want none", got)
	}
	var unreach *ErrUnreachable
	path, _, err := tab.AppendSamplePathPorts(nil, nil, 0, 7, 1)
	if !errors.As(err, &unreach) || path != nil {
		t.Fatalf("AppendSamplePathPorts = %v, %v, want nil, *ErrUnreachable", path, err)
	}
	if unreach.From != 0 || unreach.To != 7 {
		t.Fatalf("error carries %d->%d, want 0->7", unreach.From, unreach.To)
	}
	if got := tab.Dist(7)[0]; got != -1 {
		t.Fatalf("Dist = %d, want -1", got)
	}
}

// refCandidates is the reference candidate rule, compiled as a whole
// shortest-path DAG toward dst: for every node u, the unmasked ports whose
// peer is one hop closer to dst, in port order, from a distance vector
// computed here by its own masked BFS. dst itself and nodes that cannot
// reach it have no candidates.
func refCandidates(t *Table, dst topo.NodeID) [][]int32 {
	c := t.C
	d := c.BFSFromMask(dst, t.Mask())
	cands := make([][]int32, c.NumNodes())
	for u := 0; u < c.NumNodes(); u++ {
		if int32(u) == int32(dst) || d[u] < 0 {
			continue
		}
		want := d[u] - 1
		off, end := c.PortRange(int32(u))
		for pid := off; pid < end; pid++ {
			if t.Mask().Get(pid) {
				continue
			}
			if d[c.Ports[pid].To] == want {
				cands[u] = append(cands[u], pid)
			}
		}
	}
	return cands
}

// dagWalk is the reference path sampler: the same rng draw sequence as
// AppendSamplePathPorts, picking among the refCandidates of every hop.
func dagWalk(t *Table, src, dst topo.NodeID, seed uint64) ([]topo.NodeID, []int32, error) {
	if !t.Reachable(src, dst) {
		return nil, nil, &ErrUnreachable{From: src, To: dst}
	}
	dag := refCandidates(t, dst)
	path, ports := []topo.NodeID{src}, []int32{}
	at, rng := int32(src), seed
	for at != int32(dst) {
		cands := dag[at]
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
// walk over the reference candidate DAG (refCandidates): for equal seeds
// both must produce identical paths and port choices, on pristine and
// masked fabrics — so the flow path and the packet path (AppendCandidates,
// pinned to the same reference) agree on the route set.
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
// candidates — trunked links), pinning it against the reference DAG walk.
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
