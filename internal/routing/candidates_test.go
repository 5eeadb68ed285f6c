package routing_test

import (
	"math/rand"
	"slices"
	"testing"

	"hammingmesh/internal/core"
	"hammingmesh/internal/faults"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// TestCandidatesMatchReference pins Candidates and AppendCandidates against
// the reference rule (RefCandidates) from every node toward a set of
// destinations, on every Table II topology at tiny and small scale, over
// four fabrics: pristine, sampled cable faults, a single one-direction port
// fault, and an endpoint cut off from the fabric, which must get no
// candidates toward it nor from it.
func TestCandidatesMatchReference(t *testing.T) {
	for _, size := range []core.ClusterSize{core.Tiny, core.Small} {
		for _, name := range core.TopologyNames() {
			cl, err := core.NewByName(name, size)
			if err != nil {
				t.Fatal(err)
			}
			c := cl.Comp
			eps := c.Endpoints
			// The one-direction fault is the port delivering into eps[1]
			// over its first cable; the cable's other direction stays up.
			flaky := c.Ports[c.PortID(int32(eps[1]), 0)].Rev
			cut := eps[2]
			fabrics := []struct {
				name   string
				mask   simcore.PortMask
				cutOff bool // cut has no live port
			}{
				{"pristine", nil, false},
				{"links", faults.SampleLinks(c, 0.05, 1).Mask(), false},
				{"portdir", faults.NewBuilder(c).FailPortDir(flaky).Build().Mask(), false},
				{"cutoff", faults.NewBuilder(c).FailNode(cut).Build().Mask(), true},
			}
			// Tiny tables are checked toward every node; small ones toward
			// the fault-adjacent endpoints and a seeded sample of nodes.
			dsts := []topo.NodeID{eps[0], eps[1], cut}
			rng := rand.New(rand.NewSource(5))
			for v := 0; v < c.NumNodes(); v++ {
				if size == core.Tiny || rng.Intn(c.NumNodes()) < 12 {
					dsts = append(dsts, topo.NodeID(v))
				}
			}
			for _, f := range fabrics {
				tab := routing.NewTableMask(c, f.mask)
				prefix := []int32{-7}
				for _, dst := range dsts {
					ref := routing.RefCandidates(tab, dst)
					for at := int32(0); at < int32(c.NumNodes()); at++ {
						got := tab.Candidates(at, dst)
						if !slices.Equal(got, ref[at]) {
							t.Fatalf("%s/%s/%s: Candidates(%d, %d) = %v, reference %v",
								name, size, f.name, at, dst, got, ref[at])
						}
						app := tab.AppendCandidates(prefix, at, dst)
						if app[0] != -7 || !slices.Equal(app[1:], ref[at]) {
							t.Fatalf("%s/%s/%s: AppendCandidates(%v, %d, %d) = %v, reference %v",
								name, size, f.name, prefix, at, dst, app, ref[at])
						}
					}
				}
				if !f.cutOff {
					continue
				}
				for at := int32(0); at < int32(c.NumNodes()); at++ {
					if got := tab.Candidates(at, cut); len(got) != 0 {
						t.Fatalf("%s/%s: node %d has candidates %v toward cut-off endpoint %d", name, size, at, got, cut)
					}
				}
				if got := tab.Candidates(int32(cut), eps[0]); len(got) != 0 {
					t.Fatalf("%s/%s: cut-off endpoint %d has candidates %v", name, size, cut, got)
				}
			}
		}
	}
}
