package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"hammingmesh/internal/core"
	"hammingmesh/internal/netsim"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/sched"
	"hammingmesh/internal/workload"
)

// scale sizes every workload. "full" is the benchmark; "tiny" runs the
// same code paths in about a second, for hxbench's own tests.
type scale struct {
	Name string
	// flow-large-cold
	FlowSize   core.ClusterSize
	FlowShifts int
	// packet-small
	PktSize   core.ClusterSize
	PktShifts int
	PktBytes  int64
	Perms     int
	// alloc-sched: the hx2mesh cluster whose board grid is scheduled
	AllocSize   core.ClusterSize
	Fig8Mixes   int
	SchedJobs   int
	SchedTrials int
	HorizonH    float64
	SwitchGroup int
	// hxd-mix: open-loop request rate and stream length
	HxdRate   float64
	HxdStream time.Duration
}

var scales = map[string]scale{
	"full": {
		Name:     "full",
		FlowSize: core.Large, FlowShifts: 16,
		PktSize: core.Small, PktShifts: 48, PktBytes: 256 << 10, Perms: 2,
		AllocSize: core.Small, Fig8Mixes: 300, SchedJobs: 40, SchedTrials: 4, HorizonH: 20, SwitchGroup: 8,
		HxdRate: 30, HxdStream: 8 * time.Second,
	},
	"tiny": {
		Name:     "tiny",
		FlowSize: core.Tiny, FlowShifts: 4,
		PktSize: core.Tiny, PktShifts: 4, PktBytes: 64 << 10, Perms: 1,
		AllocSize: core.Tiny, Fig8Mixes: 10, SchedJobs: 20, SchedTrials: 1, HorizonH: 20, SwitchGroup: 2,
		HxdRate: 40, HxdStream: time.Second,
	},
}

// workloads maps each BENCHMARK.json workload name to one cold
// iteration. README.md records why each was chosen.
var workloads = map[string]func(*iterEnv){
	"flow-large-cold": flowLargeCold,
	"packet-small":    packetSmall,
	"alloc-sched":     allocSched,
	"hxd-mix":         hxdMix,
}

// flowLargeCold is `hxsim -topo hx2mesh -size large -pattern alltoall`:
// Pool.Cluster, then Pool.AlltoallFlowShare, whose lazy routing warm-up
// dominates a cold run. The traced iteration first warms routing in its
// own span (Table.PrecomputeParallel over the endpoints, as the runner
// does), then makes the same Pool.AlltoallFlowShare call on the warm
// table, with the pool's metrics on a private registry.
func flowLargeCold(e *iterEnv) {
	p, c, err := e.setupCluster(e.sc.FlowSize)
	if err != nil {
		e.op("alltoall_flow", func(spanCtx) error { return err })
		return
	}
	reg := e.observe(p)
	e.op("alltoall_flow", func(ctx spanCtx) error {
		if e.tr != nil {
			e.rec.Layers["routing.warm_s"] = e.tr.span("routing.warm", ctx, 0, func(spanCtx) {
				c.Table.PrecomputeParallel(c.AliveEndpoints(), p.Workers())
			})
			e.rec.Layers["routing.table_mb"] = float64(c.Table.MemoryBytes()) / (1 << 20)
		}
		var share float64
		var err error
		e.tr.span("runner.alltoall_flow_share", ctx, 0, func(spanCtx) {
			share, err = p.AlltoallFlowShare(c, c.FlowConfig(uint64(e.seed)), e.sc.FlowShifts, uint64(e.seed))
		})
		if err != nil {
			return err
		}
		e.output("alltoall_flow.share", fmtFloat(share))
		e.checkShare(0, "flow alltoall", share)
		return nil
	})
	if reg != nil {
		// Every job of the call is one flowsim solve.
		m := scrape(reg)
		e.rec.Layers["flowsim.solve_s"] = m["runner_job_seconds_sum"]
		e.flowCounts(m)
	}
}

// observe gives a traced iteration's pool a fresh private metrics
// registry (runner.Pool.EnableObs), from which the layer counts and job
// times are read after the calls. An untraced iteration leaves
// instrumentation off and gets nil.
func (e *iterEnv) observe(p *runner.Pool) *obs.Registry {
	if e.tr == nil {
		return nil
	}
	reg := obs.NewRegistry()
	p.EnableObs(reg)
	return reg
}

// scrape reads a registry's text exposition into series → value, e.g.
// `netsim_events_total{kind="arrive"}` or `runner_job_seconds_sum`.
func scrape(reg *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	reg.Render(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// netsimCounts records the time of the netsim runs, their event count
// (exact: every processed event is an arrive or a free) and the cost per
// event.
func (e *iterEnv) netsimCounts(m map[string]float64, runS float64) {
	events := m[`netsim_events_total{kind="arrive"}`] + m[`netsim_events_total{kind="free"}`]
	e.rec.Layers["netsim.run_s"] = runS
	e.rec.Layers["netsim.events"] = events
	if events > 0 {
		e.rec.Layers["netsim.ns_per_event"] = runS * 1e9 / events
	}
}

// flowCounts records the flowsim solvers' work counters.
func (e *iterEnv) flowCounts(m map[string]float64) {
	e.rec.Layers["flowsim.heap_pops"] = m["flowsim_heap_pops_total"]
	e.rec.Layers["flowsim.subflows"] = m["flowsim_subflows_total"]
}

// packetSmall is the `hxsim -size small` packet path on hx2mesh:
// Pool.AlltoallPacketShare, then Pool.PermutationSweepGBps. The traced
// iteration first warms routing in its own span (Table.Candidates toward
// every endpoint), then makes the same calls with the pool's metrics on a
// private registry; every job of both calls is one netsim Sim.Run.
func packetSmall(e *iterEnv) {
	p, c, err := e.setupCluster(e.sc.PktSize)
	if err != nil {
		e.op("alltoall_packet", func(spanCtx) error { return err })
		return
	}
	reg := e.observe(p)
	cfg := netsim.DefaultConfig()
	cfg.Seed = e.seed
	e.op("alltoall_packet", func(ctx spanCtx) error {
		if e.tr != nil {
			eps := c.AliveEndpoints()
			e.rec.Layers["routing.warm_s"] = e.tr.span("routing.warm", ctx, 0, func(spanCtx) {
				for _, d := range eps {
					c.Table.Candidates(int32(eps[0]), d)
				}
			})
			e.rec.Layers["routing.table_mb"] = float64(c.Table.MemoryBytes()) / (1 << 20)
		}
		var share float64
		var err error
		e.tr.span("runner.alltoall_packet_share", ctx, 0, func(spanCtx) {
			share, err = p.AlltoallPacketShare(c, cfg, e.sc.PktBytes, e.sc.PktShifts, e.seed)
		})
		if err != nil {
			return err
		}
		e.output("alltoall_packet.share", fmtFloat(share))
		e.checkShare(0, "packet alltoall", share)
		return nil
	})
	e.op("permutation", func(ctx spanCtx) error {
		var bws []float64
		var err error
		e.tr.span("runner.permutation_sweep", ctx, 0, func(spanCtx) {
			bws, err = p.PermutationSweepGBps(c, cfg, e.sc.PktBytes, e.sc.Perms, e.seed)
		})
		if err != nil {
			return err
		}
		sum := 0.0
		for _, b := range bws {
			if !(b > 0) || math.IsInf(b, 0) {
				e.fail(1, "permutation bandwidth %v not positive and finite", b)
				break
			}
			sum += b
		}
		e.output("permutation.mean_gbps", fmtFloat(sum/float64(len(bws))))
		e.output("permutation.digest", digestFloats(bws))
		return nil
	})
	if reg != nil {
		m := scrape(reg)
		e.netsimCounts(m, m["runner_job_seconds_sum"])
	}
}

// allocSched is the hxalloc pipeline on the hx2mesh board grid: the
// Fig. 8 static-mix study (workload.UtilizationExperiment, one pool job
// per heuristic stack), then a scheduler sweep over interference ×
// elastic × priority × MTBF × policy. Half the sweep's points price
// contention jointly and half do not, on one shared Interference model.
func allocSched(e *iterEnv) {
	p, c, err := e.setupCluster(e.sc.AllocSize)
	if err != nil {
		e.op("fig8", func(spanCtx) error { return err })
		return
	}
	x, y := c.Grid.X, c.Grid.Y
	e.op("fig8", func(ctx spanCtx) error {
		stacks := workload.Fig8Stacks()
		var mu sync.Mutex
		var fig8S float64
		jobs := make([]runner.Job, len(stacks))
		for i, h := range stacks {
			jobs[i] = runner.Job{Name: h.Name, Run: func(*runner.Ctx) (any, error) {
				var u map[string][]float64
				d := e.tr.span("alloc.fig8", ctx, i+1, func(spanCtx) {
					u = workload.UtilizationExperiment(x, y, 4, e.sc.Fig8Mixes, 0, workload.AlibabaLike(), []workload.HeuristicStack{h}, e.seed)
				})
				mu.Lock()
				fig8S += d
				mu.Unlock()
				return u[h.Name], nil
			}}
		}
		results := p.Run(jobs)
		if err := runner.FirstErr(results); err != nil {
			return err
		}
		var all []float64
		for _, r := range results {
			for _, u := range r.Value.([]float64) {
				if !(u > 0 && u <= 1) {
					e.fail(0, "fig8 utilization %v outside (0, 1]", u)
				}
				all = append(all, u)
			}
		}
		e.output("fig8.digest", digestFloats(all))
		if e.tr != nil {
			e.rec.Layers["alloc.fig8_s"] = fig8S
		}
		return nil
	})
	e.op("sched", func(ctx spanCtx) error {
		cfg := e.schedConfig(x, y)
		var pts []runner.SchedPoint
		var err error
		if e.tr == nil {
			pts, err = p.SchedSweep(c, cfg)
		} else {
			pts, err = e.splitSchedSweep(ctx, p, c, cfg)
		}
		if err != nil {
			return err
		}
		if want := 3 * 2 * 2 * 2 * len(cfg.MTBFs); len(pts) != want {
			e.fail(1, "sched sweep returned %d points, want %d", len(pts), want)
		}
		for _, pt := range pts {
			if !(pt.Goodput >= 0 && pt.Goodput <= 1 && pt.Utilization >= 0 && pt.Utilization <= 1) || pt.Completed <= 0 {
				e.fail(1, "sched point %+v: goodput/utilization outside [0, 1] or nothing completed", pt)
				break
			}
		}
		body, err := json.Marshal(pts)
		if err != nil {
			return err
		}
		e.output("sched.digest", digestBytes(body))
		return nil
	})
}

// schedConfig is hxalloc's -mode sched with -interference 0,1 -elastic
// 0,1 -priority 0,1 -mtbf 0,120,40 on the three policies. The switch
// group is below the grid side, so the upper layer is shared and joint
// pricing does real flow solves.
//
// The sweep's inputs do not depend on the benchmark seed, which draws only
// the Fig. 8 mixes: every seed replays sched.Synthetic's trace for
// schedSeed and the failure processes SchedSweep derives from it. The
// sweep's cost depends on both. The cost of one sched.Run varies between
// traces with a coefficient of variation of about 0.5. With a fixed trace
// and seed-drawn failures, the CPU time of the sweep still spread by 22%
// (interquartile range over median, ten seeds). With seed-drawn inputs,
// run_s would measure which inputs were drawn rather than the code.
func (e *iterEnv) schedConfig(x, y int) runner.SchedSweepConfig {
	const schedSeed = 1
	g := e.sc.SwitchGroup
	trace := sched.TraceConfig{
		Jobs: e.sc.SchedJobs, ArrivalRate: 4, MeanService: 3,
		AccelsPerBoard: 4, MaxBoards: x * y, CommFrac: 0.3,
		ElasticFrac: 0.3, PriorityFrac: 0.2,
	}
	return runner.SchedSweepConfig{
		Trace:      trace,
		FixedTrace: sched.Synthetic(trace, schedSeed),
		Base: sched.Config{
			HorizonH: e.sc.HorizonH, RepairH: 10, DefragCostH: 0.1,
			Slowdown:     &sched.CommSlowdown{BoardA: 2, BoardB: 2, GroupBoards: g},
			Interference: &sched.Interference{BoardA: 2, BoardB: 2, GroupBoards: g, Taper: 1},
		},
		MTBFs:         []float64{0, 120, 40},
		CheckpointsH:  []float64{2},
		Policies:      []sched.Policy{sched.FirstFit, sched.BestFit, sched.FragAware},
		Interferences: []bool{false, true},
		Elastics:      []bool{false, true},
		Preempts:      []bool{false, true},
		Trials:        e.sc.SchedTrials,
		Seed:          schedSeed,
	}
}

// splitSchedSweep is the traced form of the sweep: Pool.SchedSweep once
// with interference off and once with it on, each with the pool's metrics
// on a fresh registry, so that the pool's job seconds split the sweep's
// time into the isolation and the joint-pricing points. Each point
// depends only on its own axes and the per-trial inputs, so the two
// halves interleaved policy by policy, the order of the full sweep, are
// the untraced sweep's points; the cross-iteration output check holds the
// two paths to that, bit for bit.
func (e *iterEnv) splitSchedSweep(ctx spanCtx, p *runner.Pool, c *core.Cluster, cfg runner.SchedSweepConfig) ([]runner.SchedPoint, error) {
	half := map[bool][]runner.SchedPoint{}
	for _, inf := range []bool{false, true} {
		sub := cfg
		sub.Interferences = []bool{inf}
		reg := e.observe(p)
		var err error
		e.tr.span("runner.sched_sweep", ctx, 0, func(spanCtx) { half[inf], err = p.SchedSweep(c, sub) })
		if err != nil {
			return nil, err
		}
		// The sweep's jobs are its sched.Run calls plus one short prep
		// job per trial (failure sampling).
		e.rec.Layers[map[bool]string{false: "sched.run_iso_s", true: "sched.run_joint_s"}[inf]] = scrape(reg)["runner_job_seconds_sum"]
	}
	st := cfg.Base.Interference.Stats()
	e.rec.Layers["sched.interference_solves"] = float64(st.Solves)
	e.rec.Layers["sched.memo_lookups"] = float64(st.Solves + st.MemoHits) // the ratio's base
	if n := st.Solves + st.MemoHits; n > 0 {
		e.rec.Layers["sched.memo_hit_ratio"] = float64(st.MemoHits) / float64(n)
	}
	n := len(half[false]) / len(cfg.Policies)
	var pts []runner.SchedPoint
	for i := range cfg.Policies {
		pts = append(pts, half[false][i*n:(i+1)*n]...)
		pts = append(pts, half[true][i*n:(i+1)*n]...)
	}
	return pts, nil
}

// digestFloats is a short hash of the exact bits of v, in order.
func digestFloats(v []float64) string {
	b := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}
