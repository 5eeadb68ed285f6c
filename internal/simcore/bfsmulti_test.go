package simcore_test

import (
	"math/rand"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/faults"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// checkBFSMulti runs BFSMulti over srcs into garbage-filled vectors and
// requires every entry to equal BFSFromMask for the same source.
func checkBFSMulti(t *testing.T, c *simcore.Compiled, srcs []topo.NodeID, mask simcore.PortMask, s *simcore.MultiBFSScratch) [][]int32 {
	t.Helper()
	out := make([][]int32, len(srcs))
	for i := range out {
		out[i] = make([]int32, c.NumNodes())
		for v := range out[i] {
			out[i][v] = 99
		}
	}
	c.BFSMulti(srcs, mask, out, s)
	for i, src := range srcs {
		want := c.BFSFromMask(src, mask)
		for v := range want {
			if out[i][v] != want[v] {
				t.Fatalf("batch of %d, source %d (node %d): dist[%d] = %d, BFSFromMask %d",
					len(srcs), i, src, v, out[i][v], want[v])
			}
		}
	}
	return out
}

// batches draws source batches of 1, 17 and 64 nodes (endpoints and
// switches alike); the 17- and 64-wide batches repeat one source.
func batches(c *simcore.Compiled, rng *rand.Rand) [][]topo.NodeID {
	var out [][]topo.NodeID
	for _, size := range []int{1, 17, 64} {
		b := make([]topo.NodeID, size)
		for i := range b {
			b[i] = topo.NodeID(rng.Intn(c.NumNodes()))
		}
		if size > 1 {
			b[size-1] = b[0]
		}
		out = append(out, b)
	}
	return out
}

// TestBFSMultiMatchesBFSFromMask pins the bit-parallel BFS against the
// per-source BFS on every Table II topology at tiny and small scale, on
// the pristine fabric and on one degraded by a seeded link sampler plus
// one-direction faults and a cut-off endpoint. One scratch serves every
// batch, so reuse across batch sizes and masks is covered too.
func TestBFSMultiMatchesBFSFromMask(t *testing.T) {
	sizes := []core.ClusterSize{core.Tiny, core.Small}
	for _, name := range core.TopologyNames() {
		for _, size := range sizes {
			t.Run(name+"/"+string(size), func(t *testing.T) {
				cl, err := core.NewByName(name, size)
				if err != nil {
					t.Fatal(err)
				}
				c := cl.Comp
				rng := rand.New(rand.NewSource(11))
				var s simcore.MultiBFSScratch

				for _, b := range batches(c, rng) {
					checkBFSMulti(t, c, b, nil, &s)
				}

				mask := faults.SampleLinks(c, 0.1, 5).Mask().Clone()
				for k := 0; k < c.NumPorts()/50+1; k++ {
					mask.Set(int32(rng.Intn(c.NumPorts())))
				}
				cut := c.Endpoints[rng.Intn(len(c.Endpoints))]
				off, end := c.PortRange(int32(cut))
				for pid := off; pid < end; pid++ {
					mask.Set(pid)
					mask.Set(c.Ports[pid].Rev)
				}
				for _, b := range batches(c, rng) {
					b[len(b)/2] = cut
					out := checkBFSMulti(t, c, b, mask, &s)
					for i, src := range b {
						if src != cut && out[i][cut] != -1 {
							t.Fatalf("cut-off endpoint %d at distance %d from %d", cut, out[i][cut], src)
						}
					}
				}
			})
		}
	}
}

// TestBFSMultiRejectsOversizedBatch pins the 64-source limit.
func TestBFSMultiRejectsOversizedBatch(t *testing.T) {
	c := simcore.Compile(topo.NewTorus2D(4, 4, 1, 1, topo.DefaultLinkParams()))
	srcs := make([]topo.NodeID, 65)
	out := make([][]int32, 65)
	defer func() {
		if recover() == nil {
			t.Fatal("BFSMulti accepted 65 sources")
		}
	}()
	c.BFSMulti(srcs, nil, out, nil)
}
