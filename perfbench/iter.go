package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"hammingmesh/internal/core"
	"hammingmesh/internal/routing"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/simcore"
	"hammingmesh/internal/topo"
)

// setupReps is how many times an iteration repeats its set-up; setup_s
// is the median over all repetitions of a run. A set-up takes
// milliseconds, so its median needs many samples to hold still from run
// to run on a shared host. Each repetition starts from a collected heap,
// as the first does in a fresh process, so that the garbage of the
// previous ones does not decide when the collector runs.
const setupReps = 20

// iterRecord is what one cold iteration (one child process) reports to
// the run loop, as one JSON line on its standard output.
type iterRecord struct {
	SetupS []float64 `json:"setup_s"`
	// RunS is the wall time of the experiment phase: the experiment calls
	// of a batch workload, the served request stream of hxd-mix.
	RunS float64 `json:"run_s"`
	// OpsMs is the latency of every timed operation in order (experiment
	// calls, or stream requests timed from their scheduled send time);
	// FirstMs holds the first operation's latency on the cold process, or
	// on hxd-mix the cold first request's to each fresh daemon.
	OpsMs      []float64 `json:"ops_ms"`
	FirstMs    []float64 `json:"first_ms"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Violations []string  `json:"violations,omitempty"`
	// Outputs are the simulated results, formatted exactly (floats as
	// shortest round-trip decimals, large results as digests); they are
	// compared across iterations and with the committed expected values.
	Outputs map[string]string `json:"outputs"`
	// Layers are the per-layer metrics this iteration measured, SelfS the
	// traced iteration's self time per layer.
	Layers map[string]float64 `json:"layers"`
	SelfS  map[string]float64 `json:"self_s,omitempty"`
}

// iterEnv is the state of one iteration of one workload.
type iterEnv struct {
	sc      scale
	seed    int64
	workers int
	tmp     string  // scratch directory inside the checkout
	tr      *tracer // nil on untraced iterations
	rec     *iterRecord

	opNames  []string
	failedOp map[int]bool
}

func newIterEnv(sc scale, seed int64, tmp string, traced bool) *iterEnv {
	e := &iterEnv{
		sc: sc, seed: seed, workers: runtime.NumCPU(), tmp: tmp,
		rec:      &iterRecord{Outputs: map[string]string{}, Layers: map[string]float64{}},
		failedOp: map[int]bool{},
	}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// op runs one operation (an experiment call) and records its latency; an
// error fails the operation. The first operation's latency is
// first_req_ms.
func (e *iterEnv) op(name string, f func(ctx spanCtx) error) {
	var err error
	d := e.tr.span("op."+name, spanCtx{}, 0, func(ctx spanCtx) { err = f(ctx) })
	e.rec.RunS += d
	i := e.record(name, d*1e3)
	if i == 0 {
		e.rec.FirstMs = []float64{d * 1e3}
	}
	if err != nil {
		e.fail(i, "%s: %v", name, err)
	}
}

// record registers one operation with its latency in milliseconds and
// returns its index.
func (e *iterEnv) record(name string, ms float64) int {
	e.rec.OpsMs = append(e.rec.OpsMs, ms)
	return e.count(name)
}

// count registers an operation that is checked but not timed and returns
// its index.
func (e *iterEnv) count(name string) int {
	e.opNames = append(e.opNames, name)
	return len(e.opNames) - 1
}

// fail records a violation against operation i.
func (e *iterEnv) fail(i int, format string, args ...any) {
	e.failedOp[i] = true
	e.rec.Violations = append(e.rec.Violations, fmt.Sprintf(format, args...))
}

// output records one simulated result under "<op>.<field>".
func (e *iterEnv) output(key, val string) { e.rec.Outputs[key] = val }

// finish compares the outputs with the expected values for this seed
// (nil when none are committed) and closes the record.
func (e *iterEnv) finish(expected map[string]string) {
	if expected != nil {
		keys := make([]string, 0, len(expected))
		for k := range expected {
			keys = append(keys, k)
		}
		for k := range e.rec.Outputs {
			if _, ok := expected[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			got, want := e.rec.Outputs[k], expected[k]
			if got != want {
				e.fail(e.opOf(k), "output %s = %q, expected %q", k, got, want)
			}
		}
	}
	e.rec.Attempted = len(e.opNames)
	e.rec.Failed = len(e.failedOp)
	if e.tr != nil {
		e.rec.SelfS = e.tr.selfTimes()
	}
}

// opOf maps an output key to the operation that produced it.
func (e *iterEnv) opOf(key string) int {
	name, _, _ := strings.Cut(key, ".")
	for i, n := range e.opNames {
		if n == name {
			return i
		}
	}
	return 0
}

// checkShare fails operation i unless share is a bandwidth share in
// (0, 1].
func (e *iterEnv) checkShare(i int, what string, share float64) {
	if !(share > 0 && share <= 1) {
		e.fail(i, "%s share %v outside (0, 1]", what, share)
	}
}

// hxSide is the board grid side of each hx2mesh cluster size (see
// core.NewByName).
var hxSide = map[core.ClusterSize]int{core.Tiny: 4, core.Small: 16, core.Large: 64}

// setupCluster is the batch workloads' set-up: runner.Pool.Cluster on a
// fresh pool, repeated setupReps times; the last pool and cluster run
// the experiment. A traced iteration first builds the same hx2mesh
// cluster layer by layer (topology, compiled network, routing table) to
// time each layer, since Pool.Cluster does all three in one call.
func (e *iterEnv) setupCluster(size core.ClusterSize) (*runner.Pool, *core.Cluster, error) {
	if e.tr != nil {
		side := hxSide[size]
		var h *topo.HxMesh
		var comp *simcore.Compiled
		e.rec.Layers["topo.build_s"] = e.tr.span("topo.build", spanCtx{}, 0, func(spanCtx) {
			h = topo.NewHxMesh(2, 2, side, side, topo.DefaultLinkParams())
		})
		e.rec.Layers["simcore.compile_s"] = e.tr.span("simcore.compile", spanCtx{}, 0, func(spanCtx) {
			comp = simcore.Compile(h.Network)
		})
		e.tr.span("routing.new_table", spanCtx{}, 0, func(spanCtx) { routing.NewTable(comp) })
	}
	var (
		p    *runner.Pool
		c    *core.Cluster
		err  error
		cost []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		p = runner.NewSeeded(e.workers, e.seed)
		d := e.tr.span("runner.cluster", spanCtx{}, 0, func(spanCtx) { c, err = p.Cluster("hx2mesh", size) })
		if err != nil {
			return nil, nil, err
		}
		cost = append(cost, d)
	}
	e.rec.SetupS = append(e.rec.SetupS, cost...)
	e.rec.Layers["runner.cluster_s"] = median(cost)
	return p, c, nil
}

// fmtFloat formats a float as its shortest exact round-trip decimal, so
// equal strings mean bit-identical values.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the linearly interpolated p-th percentile (0 for no
// samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
