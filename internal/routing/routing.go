// Package routing computes minimal adaptive routes on the topologies built
// by internal/topo. For every destination it derives the hop-distance
// vector by breadth-first search; at each node the candidate next hops are
// the ports whose peer is strictly closer to the destination. The simulator
// picks among candidates adaptively (least-loaded output), which yields the
// paper's routing behaviour on every topology:
//
//   - fat trees: up/down routing emerges from shortest paths,
//   - HxMesh: on-board torus adaptivity, closest-edge exit, intermediate
//     boards for cross-row-cross-column traffic (§IV-C),
//   - torus: dimension-adaptive minimal routing,
//   - Dragonfly: minimal (direct) routing, with an optional Valiant detour
//     for non-minimal load balancing.
//
// Deadlock freedom in the credit-based simulator uses the paper's virtual
// channel policy (§IV-C3): the VC is incremented every time a packet leaves
// a board and enters a dimension network, requiring at most three VCs.
//
// Tables operate on the compiled flat-array network (internal/simcore):
// distance vectors are cached in a dense per-node slice, so the per-packet
// lookup in the simulator's hot loop is two array indexes. The packet
// simulator additionally caches each destination's candidate-port DAG
// (Candidates); path sampling for the flow-level solver scans the
// adjacency against the distance vector instead, so flow-path tables hold
// distance vectors only. PrecomputeParallel warms many destinations at
// once with a bit-parallel BFS (64 per sweep) fanned over cores. A Table
// is safe for concurrent use — vectors are published through atomic
// pointers, which lets the experiment runner share one table across
// parallel simulations.
//
// Degraded fabrics (internal/faults) are first-class: NewTableMask builds a
// table over a port-mask overlay, recomputing distance vectors and
// candidate DAGs as if masked ports did not exist, and lookups that hit an
// unreachable destination return a typed *ErrUnreachable instead of
// silently producing empty candidate sets or indexing a -1 distance.
package routing

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// ErrUnreachable reports that no route exists between two nodes on the
// (possibly degraded) fabric. Callers match it with errors.As.
type ErrUnreachable struct {
	From, To topo.NodeID
}

func (e *ErrUnreachable) Error() string {
	return fmt.Sprintf("routing: node %d unreachable from node %d", e.To, e.From)
}

// MaxVCs is the number of virtual channels required by the HxMesh VC
// escalation policy (§IV-C3): a packet crosses at most two fat trees.
const MaxVCs = 3

// Table holds per-destination distance vectors and candidate-port lists,
// computed lazily (or warmed by PrecomputeParallel) and cached in dense
// slices indexed by destination node id. Construction is lock-free:
// workers that race on the same cold destination each compute the vector
// and the first CompareAndSwap wins (duplicate work is bounded and rare),
// so distinct destinations build concurrently during parallel sweeps.
type Table struct {
	C *simcore.Compiled

	// mask is the port-mask overlay of a degraded fabric (nil = pristine).
	// Distance vectors and candidate DAGs are computed as if masked ports
	// did not exist, so every consumer of the table routes around faults.
	mask simcore.PortMask

	dist []atomic.Pointer[[]int32]
	cand []atomic.Pointer[candVec]

	// candBytes approximates the memory held by the candidate DAGs that
	// Candidates has built (for MemoryBytes).
	candBytes atomic.Int64
}

// candVec is the compiled shortest-path DAG toward one destination: the
// minimal candidate output ports of node u are
// ports[off[u]:off[u+1]] (global port ids == channel ids).
type candVec struct {
	off   []int32
	ports []int32
}

// NewTable creates a routing table over a compiled network.
func NewTable(c *simcore.Compiled) *Table { return NewTableMask(c, nil) }

// NewTableMask creates a routing table over a degraded fabric: ports set in
// the mask do not exist for route computation. A nil mask is the pristine
// fabric. The mask must not change after the table is created (a new fault
// scenario is a new table).
func NewTableMask(c *simcore.Compiled, mask simcore.PortMask) *Table {
	return &Table{
		C:    c,
		mask: mask,
		dist: make([]atomic.Pointer[[]int32], c.NumNodes()),
		cand: make([]atomic.Pointer[candVec], c.NumNodes()),
	}
}

// NewTableNet is a convenience constructor from a raw network (compiled via
// the simcore cache).
func NewTableNet(n *topo.Network) *Table { return NewTable(simcore.Of(n)) }

// Mask returns the table's port-mask overlay (nil when pristine). Shared,
// read-only.
func (t *Table) Mask() simcore.PortMask { return t.mask }

// Dist returns the hop-distance vector toward dst (computing it on first
// use). dist[v] is the number of links from v to dst, or -1 when dst is
// unreachable from v on the (possibly degraded) fabric.
func (t *Table) Dist(dst topo.NodeID) []int32 {
	if p := t.dist[dst].Load(); p != nil {
		return *p
	}
	d := t.C.BFSFromMask(dst, t.mask)
	if t.dist[dst].CompareAndSwap(nil, &d) {
		return d
	}
	return *t.dist[dst].Load()
}

// Reachable reports whether dst is reachable from src.
func (t *Table) Reachable(src, dst topo.NodeID) bool {
	return src == dst || t.Dist(dst)[src] >= 0
}

// Candidates returns the global port ids (channel ids) of the minimal
// candidate outputs of node `at` toward dst, in port order. The
// per-destination DAG is compiled once from the distance vector and cached,
// so the per-packet cost in the simulator's hot loop is slicing a flat
// array. The slice is shared and must not be mutated.
func (t *Table) Candidates(at int32, dst topo.NodeID) []int32 {
	cv := t.cand[dst].Load()
	if cv == nil {
		cv = t.buildCand(dst)
	}
	return cv.ports[cv.off[at]:cv.off[at+1]]
}

// CandidatesErr is Candidates with explicit unreachability: when node `at`
// has no minimal candidate toward dst (dst is cut off on the degraded
// fabric) it returns a typed *ErrUnreachable instead of an empty slice the
// caller would have to interpret.
func (t *Table) CandidatesErr(at int32, dst topo.NodeID) ([]int32, error) {
	cands := t.Candidates(at, dst)
	if len(cands) == 0 && int32(dst) != at {
		return nil, &ErrUnreachable{From: topo.NodeID(at), To: dst}
	}
	return cands, nil
}

func (t *Table) buildCand(dst topo.NodeID) *candVec {
	d := t.Dist(dst)
	c := t.C
	cv := &candVec{off: make([]int32, c.NumNodes()+1)}
	cv.ports = make([]int32, 0, c.NumPorts()/2)
	for u := 0; u < c.NumNodes(); u++ {
		cv.off[u] = int32(len(cv.ports))
		if int32(u) == int32(dst) || d[u] < 0 {
			continue
		}
		want := d[u] - 1
		off, end := c.PortRange(int32(u))
		for pid := off; pid < end; pid++ {
			if t.mask.Get(pid) {
				continue
			}
			if d[c.Ports[pid].To] == want {
				cv.ports = append(cv.ports, pid)
			}
		}
	}
	cv.off[c.NumNodes()] = int32(len(cv.ports))
	if t.cand[dst].CompareAndSwap(nil, cv) {
		t.candBytes.Add(4 * int64(len(cv.off)+len(cv.ports)))
		return cv
	}
	return t.cand[dst].Load()
}

// MemoryBytes approximates the memory retained by the table's lazily
// built caches: four bytes per entry of every cached distance vector plus
// the candidate DAGs built by Candidates.
// The value grows as the table warms, so callers that budget table memory
// (runner.Pool's cluster cache) should re-estimate rather than snapshot.
// Safe for concurrent use.
func (t *Table) MemoryBytes() int64 {
	built := 0
	for i := range t.dist {
		if t.dist[i].Load() != nil {
			built++
		}
	}
	return 4*int64(built)*int64(t.C.NumNodes()) + t.candBytes.Load()
}

// PrecomputeParallel warms the distance vectors of the given destinations
// (duplicates and already cached ones are skipped), fanned over the given
// number of goroutines. The cold destinations are grouped into batches of
// 64 nearby nodes, and each batch is one bit-parallel BFS
// (simcore.BFSMulti); nearby sources reach most nodes at the same few
// levels, so their bits travel together. Each vector is published through
// the same CompareAndSwap as Dist, so warming may race with lazy lookups.
// Pre-warming also spares racing cold sweep jobs the duplicate builds the
// lock-free cache would otherwise let them perform.
func (t *Table) PrecomputeParallel(dsts []topo.NodeID, workers int) {
	cold := t.coldBatches(dsts)
	batches := (len(cold) + 63) / 64
	workers = max(1, min(workers, batches))
	n := t.C.NumNodes()
	var next atomic.Int64
	warm := func() {
		var s simcore.MultiBFSScratch
		out := make([][]int32, 0, 64)
		for {
			b := int(next.Add(1) - 1)
			if b >= batches {
				return
			}
			srcs := cold[64*b : min(64*b+64, len(cold))]
			out = out[:0]
			for range srcs {
				out = append(out, make([]int32, n))
			}
			t.C.BFSMulti(srcs, t.mask, out, &s)
			for i, d := range srcs {
				vec := out[i]
				t.dist[d].CompareAndSwap(nil, &vec)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			warm()
		}()
	}
	warm()
	wg.Wait()
}

// coldBatches returns the distinct destinations of dsts that have no cached
// vector, ordered so that every run of 64 is a ball: an unmasked BFS from
// the first remaining destination (in dsts order) collects the 63 closest
// remaining ones. The order only groups sources into batches; it never
// changes a vector.
func (t *Table) coldBatches(dsts []topo.NodeID) []topo.NodeID {
	c := t.C
	want := make([]bool, c.NumNodes())
	cold := 0
	for _, d := range dsts {
		if !want[d] && t.dist[d].Load() == nil {
			want[d] = true
			cold++
		}
	}
	if cold == 0 {
		return nil
	}
	order := make([]topo.NodeID, 0, cold)
	visited := make([]int32, c.NumNodes()) // 1 + batch index of the last ball to visit
	var queue []int32
	for _, d := range dsts {
		if !want[d] {
			continue
		}
		ball := int32(len(order)/64 + 1)
		visited[d] = ball
		queue = append(queue[:0], int32(d))
		for h := 0; h < len(queue) && len(order) < 64*int(ball); h++ {
			u := queue[h]
			if want[u] {
				want[u] = false
				order = append(order, topo.NodeID(u))
			}
			for p := c.PortOff[u]; p < c.PortOff[u+1]; p++ {
				if v := c.Ports[p].To; visited[v] != ball {
					visited[v] = ball
					queue = append(queue, v)
				}
			}
		}
	}
	return order
}

// NextPorts appends to buf the node-local indexes of ports on node `at`
// that lie on a shortest path to dst and returns the extended slice. It
// returns buf unchanged if at == dst; see NextPortsErr for explicit
// unreachability reporting.
func (t *Table) NextPorts(at, dst topo.NodeID, buf []int) []int {
	if at == dst {
		return buf
	}
	d := t.Dist(dst)
	if d[at] < 0 {
		return buf
	}
	want := d[at] - 1
	off := t.C.PortID(int32(at), 0)
	for i, p := range t.C.PortsOf(int32(at)) {
		if t.mask.Get(off + int32(i)) {
			continue
		}
		if d[p.To] == want {
			buf = append(buf, i)
		}
	}
	return buf
}

// NextPortsErr is NextPorts with a typed *ErrUnreachable when dst cannot be
// reached from `at` (historically this case fell through to a -1 distance
// and an empty port list the caller had to guess about).
func (t *Table) NextPortsErr(at, dst topo.NodeID, buf []int) ([]int, error) {
	if at != dst && t.Dist(dst)[at] < 0 {
		return buf, &ErrUnreachable{From: at, To: dst}
	}
	return t.NextPorts(at, dst, buf), nil
}

// PathLen returns the shortest path length in links between two nodes, or
// -1 when b is unreachable from a.
func (t *Table) PathLen(a, b topo.NodeID) int { return int(t.Dist(b)[a]) }

// SamplePath returns one shortest path (as node ids, inclusive of both
// ends) selected deterministically by the seed among the shortest-path DAG
// branches, or nil when dst is unreachable (see SamplePathErr). Used by
// the flow-level solver to enumerate path diversity.
func (t *Table) SamplePath(src, dst topo.NodeID, seed uint64) []topo.NodeID {
	path, _ := t.SamplePathErr(src, dst, seed)
	return path
}

// SamplePathErr is SamplePath with a typed *ErrUnreachable instead of a nil
// path when no route exists.
func (t *Table) SamplePathErr(src, dst topo.NodeID, seed uint64) ([]topo.NodeID, error) {
	return t.AppendSamplePath(nil, src, dst, seed)
}

// AppendSamplePath is SamplePathErr appending into buf (usually buf[:0] of
// a buffer from a previous sample), so hot path-sampling loops — the
// flow-level solver draws PathsPerFlow samples per flow per shift — reuse
// one backing array instead of allocating every path. On error buf may hold
// a partial walk; only the returned slice is meaningful.
func (t *Table) AppendSamplePath(buf []topo.NodeID, src, dst topo.NodeID, seed uint64) ([]topo.NodeID, error) {
	path, _, err := t.AppendSamplePathPorts(buf, nil, src, dst, seed)
	return path, err
}

// AppendSamplePathPorts is AppendSamplePath that also appends the global
// port id chosen at every hop into portBuf (skipped when portBuf is nil),
// so callers that need the traversed channels — the flow-level solver maps
// each hop to its parallel-link group — avoid re-scanning the adjacency
// for every path edge. The walk, the rng draw sequence and the chosen
// branches are identical to SamplePath for equal seeds.
func (t *Table) AppendSamplePathPorts(buf []topo.NodeID, portBuf []int32, src, dst topo.NodeID, seed uint64) ([]topo.NodeID, []int32, error) {
	d := t.Dist(dst)
	if d[src] < 0 {
		return nil, portBuf, &ErrUnreachable{From: src, To: dst}
	}
	// Candidates are the unmasked ports whose peer is one hop closer to
	// dst, in port order — the set and order Candidates compiles — found
	// by scanning the node's ports against the distance vector. Masked
	// ports are not candidates even when their peer is at the right
	// distance (the peer may be reachable through a live port).
	path := append(buf, src)
	at := int32(src)
	rng := seed
	mask := t.mask
	ports := t.C.Ports
	// The minimal fan-out is at most the node radix, so a fixed stack
	// buffer covers all but degenerate nodes, which rescan for the pick.
	var cbuf [64]int32
	for at != int32(dst) {
		want := d[at] - 1
		off, end := t.C.PortRange(at)
		n := 0
		for pid := off; pid < end; pid++ {
			if d[ports[pid].To] == want && !mask.Get(pid) {
				if n < len(cbuf) {
					cbuf[n] = pid
				}
				n++
			}
		}
		if n == 0 {
			// Unreachable mid-walk cannot happen when the distance vector
			// and the mask agree; guard anyway so a future inconsistency
			// surfaces as an error, not a modulo-by-zero panic.
			return nil, portBuf, &ErrUnreachable{From: topo.NodeID(at), To: dst}
		}
		rng = rng*6364136223846793005 + 1442695040888963407
		pick := int(rng>>33) % n
		chosen := int32(-1)
		if pick < len(cbuf) {
			chosen = cbuf[pick]
		} else {
			for pid := off; chosen < 0; pid++ {
				if d[ports[pid].To] == want && !mask.Get(pid) {
					if pick == 0 {
						chosen = pid
					}
					pick--
				}
			}
		}
		at = ports[chosen].To
		path = append(path, topo.NodeID(at))
		if portBuf != nil {
			portBuf = append(portBuf, chosen)
		}
	}
	return path, portBuf, nil
}

// VCPolicy decides the virtual channel of a packet after it traverses a
// hop. The HxMesh policy (§IV-C3) increments the VC whenever the packet
// jumps from a board into a dimension network (an endpoint-to-switch hop),
// so board-internal north-last routing and in-tree up/down routing each
// stay within one VC and at most three VCs are used.
func VCPolicy(c *simcore.Compiled, from, to int32, vc int8) int8 {
	if c.Kind[from] == topo.Endpoint && c.Kind[to] == topo.Switch {
		if vc < MaxVCs-1 {
			return vc + 1
		}
		return vc
	}
	return vc
}

// Valiant holds an optional non-minimal routing decision: route first
// minimally to Mid, then minimally to the destination. Used for UGAL-style
// load balancing on Dragonfly (the paper uses UGAL-L there).
type Valiant struct {
	Mid topo.NodeID
}

// NextPortsVia routes toward mid until reached, then toward dst.
func (t *Table) NextPortsVia(at, mid, dst topo.NodeID, reachedMid bool, buf []int) ([]int, bool) {
	if !reachedMid && at == mid {
		reachedMid = true
	}
	if reachedMid {
		return t.NextPorts(at, dst, buf), true
	}
	return t.NextPorts(at, mid, buf), false
}
