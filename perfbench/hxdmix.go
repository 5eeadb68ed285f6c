package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hammingmesh/internal/journal"
	"hammingmesh/internal/obs"
	"hammingmesh/internal/runner"
	"hammingmesh/internal/serve"
)

// mixReq is one scheduled request of the hxd-mix stream.
type mixReq struct {
	due  time.Duration // send time, from the start of the stream
	body []byte
	want int // expected status: 200, or 400 for a malformed body
}

// malformed bodies hxd must answer with 400.
var malformed = [][]byte{
	[]byte(`{"kind":"alltoall_flow","size":"huge"}`),
	[]byte(`{"kind":"teleport"}`),
	[]byte(`{"kind":"alltoall_packet","shifts":-3}`),
	[]byte(`{"kind":"sched","topo":"fattree"}`),
	[]byte(`{"kind":"permutation","bogus":true}`),
	[]byte(`{"kind":`),
}

// freshKinds are the computing requests of the mix: tiny requests of all
// six kinds plus small alltoall_flow. Small allreduce takes seconds and is
// left out. Small sched is left out too: its cost has a heavy tail over
// seeds (one request of the stream computed for 97 ms, against a 2 ms
// median, and lifted the live heap by about 25 MB), so the run's peak RSS
// measured whether the seed drew such a request: 59 to 101 MB, a spread of
// 26-36% over ten seeds. alloc-sched runs the scheduler on the same small
// grid. The stream holds equally many fresh requests of each entry. Equal
// shares are an assumption: no measured mix of hxd traffic exists to
// weight them by. Each draw picks one of the entry's topologies (nil: the
// default hx2mesh) and gets a new seed, so it is a cache miss when first
// sent. allreduce ignores the seed, so its distinct requests come from its
// topology × size grid and soon turn into hits. The sweeps are trimmed
// (fewer shifts, steps, trials and jobs than the defaults) so that no
// request computes for much longer than the rest: a few 100 ms requests on
// the serial batcher would otherwise set the p99 by how they happen to
// cluster.
var freshKinds = []struct {
	topos []string
	req   serve.Request
}{
	{allTopos, serve.Request{Kind: serve.KindAlltoallFlow}},
	{nil, serve.Request{Kind: serve.KindAlltoallPacket, Shifts: 2}},
	{nil, serve.Request{Kind: serve.KindPermutation}},
	{allTopos, serve.Request{Kind: serve.KindAllreduce}},
	{nil, serve.Request{Kind: serve.KindResilience, Steps: 3, Trials: 1, Shifts: 2}},
	{nil, serve.Request{Kind: serve.KindSched, Jobs: 20, Trials: 1}},
	{nil, serve.Request{Kind: serve.KindAlltoallFlow, Size: "small", Shifts: 2}},
}

var allTopos = []string{"hx2mesh", "hx4mesh", "fattree", "torus"}

func mustJSON(r serve.Request) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a serve.Request always marshals
	}
	return b
}

// buildMix generates the requests of one iteration from the seed.
//
// first is the cold small alltoall_flow request. It is the same for
// every seed, because its cost depends on the shifts its seed draws
// (58 ms against 95 ms between two seeds), and first_req_ms is to measure
// the cold path, not the draw. warm holds one request
// of every kind, topology and size in freshKinds, sent one at a time
// before the stream: the first use of each pays one-time costs (cluster
// builds, model caches) that would otherwise make up the stream's p99,
// as a handful of requests whose number and position depend on the seed.
// Their latencies are not in the stream's percentiles.
//
// The stream runs at a constant rate. Its composition is fixed and only
// its order and contents vary with the seed, so every seed loads the
// daemon alike: 3% malformed, 40% repeats of an earlier stream request
// with popularity skewed toward the first ones (cache hits, or coalesced
// while the original computes), and fresh requests, equally many (to one)
// per freshKinds entry, 15% of which are sent twice at once so the second
// coalesces onto the first.
func buildMix(sc scale, seed int64) (first []byte, warm [][]byte, stream []mixReq) {
	rng := rand.New(rand.NewSource(seed))
	reqSeed := 1 + rng.Int63n(1<<40)
	first = mustJSON(serve.Request{Kind: serve.KindAlltoallFlow, Size: "small", Seed: 1})
	for _, k := range freshKinds {
		topos := k.topos
		if topos == nil {
			topos = []string{""}
		}
		for _, t := range topos {
			r := k.req
			r.Topo = t
			if r.Kind == serve.KindAllreduce {
				r.Bytes = 32 << 10 // outside the stream's sizes
			} else {
				r.Seed = reqSeed - 1 - int64(len(warm))
			}
			warm = append(warm, mustJSON(r))
		}
	}

	// Slot kinds: -2 malformed, -1 repeat, k >= 0 a fresh freshKinds[k].
	n := int(sc.HxdRate * sc.HxdStream.Seconds())
	nBad, nRepeat := n*3/100, n*40/100
	nFresh := n - nBad - nRepeat
	var slots []int
	for i := 0; i < nFresh; i++ {
		slots = append(slots, i%len(freshKinds))
	}
	for i := 0; i < nBad; i++ {
		slots = append(slots, -2)
	}
	for len(slots) < n {
		slots = append(slots, -1)
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for i, k := range slots {
		if k >= 0 { // a repeat needs an earlier fresh request
			slots[0], slots[i] = slots[i], slots[0]
			break
		}
	}
	paired := map[int]bool{}
	for _, i := range rng.Perm(nFresh)[:nFresh*15/100] {
		paired[i] = true
	}

	var fresh [][]byte
	gap := time.Duration(float64(time.Second) / sc.HxdRate)
	for i, k := range slots {
		due := time.Duration(i) * gap
		switch {
		case k == -2:
			stream = append(stream, mixReq{due, malformed[rng.Intn(len(malformed))], http.StatusBadRequest})
		case k == -1:
			r := int(float64(len(fresh)) * math.Pow(rng.Float64(), 3))
			stream = append(stream, mixReq{due, fresh[r], http.StatusOK})
		default:
			r := freshKinds[k].req
			if t := freshKinds[k].topos; t != nil {
				r.Topo = t[rng.Intn(len(t))]
			}
			if r.Kind == serve.KindAllreduce {
				r.Bytes = int64(64<<10) << rng.Intn(3)
			} else {
				reqSeed++
				r.Seed = reqSeed
			}
			b := mustJSON(r)
			stream = append(stream, mixReq{due, b, http.StatusOK})
			if paired[len(fresh)] {
				stream = append(stream, mixReq{due, b, http.StatusOK})
			}
			fresh = append(fresh, b)
		}
	}
	return first, warm, stream
}

// reply is what the client observed for one request.
type reply struct {
	status    int
	cache     string // X-Hxd-Cache: hit, miss or coalesced
	key       string // X-Hxd-Key, the canonical content address
	body      []byte
	queueNs   int64
	computeNs int64
	err       error
	latMs     float64 // from the scheduled send time to the full reply
	lateMs    float64 // how late the generator sent it
}

func post(client *http.Client, url string, body []byte) reply {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	r := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Hxd-Cache"), key: resp.Header.Get("X-Hxd-Key"), body: b, err: err}
	r.queueNs, _ = strconv.ParseInt(resp.Header.Get("X-Hxd-Queue-Ns"), 10, 64)
	r.computeNs, _ = strconv.ParseInt(resp.Header.Get("X-Hxd-Compute-Ns"), 10, 64)
	return r
}

// daemon is one in-process hxd: a serve.Server with the journal on,
// behind an HTTP server on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string
}

// daemonConfig configures a daemon with its own pool and its journal in
// dir. Every record is written, framed and checksummed as by hxd, but not
// fsync'd (journal.Options.NoSync): an fsync waits for the host's disk,
// which this benchmark shares with other machines. On the 2-vCPU machine
// it was tuned on, one fsync of a small record took 0.4 ms at the median
// and 6 ms at p95, and with a sync after every accepted request and every
// result the stream's req_p50_ms followed the host's load rather than the
// daemon (4.4 to 5.8 ms over seven runs of one binary). Segment creation
// still syncs, so setup_s includes it.
func (e *iterEnv) daemonConfig(dir string) serve.Config {
	return serve.Config{
		Pool:           runner.NewSeeded(e.workers, e.seed),
		JournalDir:     dir,
		JournalOptions: journal.Options{NoSync: true},
	}
}

// startDaemon is hxd-mix's set-up: serve.New plus a listener that has
// answered /healthz.
func startDaemon(cfg serve.Config, client *http.Client) (*daemon, error) {
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	d := &daemon{srv: s, hs: &http.Server{Handler: s}, served: make(chan error, 1), url: "http://" + ln.Addr().String(), dir: cfg.JournalDir}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener down, waits for the serve loop, then drains the
// server and seals its journal.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// spinWindow is how long before a request's send time the generator
// stops sleeping and yields until the time has come.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at t. A plain sleep returned about half a millisecond
// late at the median on the 2-vCPU machine the benchmark was tuned on,
// which doubled the latency of a cache hit timed from its send time
// (1.1 ms against 0.5 ms); the generator's timer, not the daemon, then
// made up half of what was measured. So it sleeps until spinWindow before
// t and yields the processor until t, which costs about 5% of one core at
// 30 requests/s.
func waitUntil(t time.Time) {
	time.Sleep(time.Until(t) - spinWindow)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// computeTimes sums the time of a traced daemon's computations
// (serve.Computer.Compute, which the batcher calls one at a time) by
// request kind.
type computeTimes struct {
	mu     sync.Mutex
	byKind map[string]float64
	total  float64
}

// wrap times every call of compute in a serve.compute span.
func (ct *computeTimes) wrap(tr *tracer, compute func(*serve.Canon) ([]byte, error)) func(*serve.Canon) ([]byte, error) {
	return func(cn *serve.Canon) (body []byte, err error) {
		d := tr.span("serve.compute", spanCtx{}, 0, func(spanCtx) { body, err = compute(cn) })
		ct.mu.Lock()
		ct.byKind[cn.Kind] += d
		ct.total += d
		ct.mu.Unlock()
		return body, err
	}
}

func (ct *computeTimes) busy() float64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.total
}

// firstReps is how many fresh daemons get the cold first request.
const firstReps = 20

// hxdMix drives a cold in-process hxd daemon with the journal enabled:
// the warm-up requests, the open-loop stream from nproc client
// connections, then a restart on the same journal directory, and last the
// cold first request to fresh daemons. Only this workload measures serve,
// its cache, the batcher and the journal.
func hxdMix(e *iterEnv) {
	conns := runtime.NumCPU()
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 60 * time.Second}

	// Every set-up repetition starts a cold daemon; the last one serves
	// the iteration. On a traced iteration its pool's metrics go to a
	// private registry and its computations are timed by kind.
	first, warm, stream := buildMix(e.sc, e.seed)
	var (
		d   *daemon
		reg *obs.Registry
	)
	ct := &computeTimes{byKind: map[string]float64{}}
	for i := 0; i < setupReps; i++ {
		var err error
		if d != nil {
			err = d.stop()
		}
		runtime.GC()
		cfg := e.daemonConfig(filepath.Join(e.tmp, fmt.Sprintf("journal%d", i)))
		if i == setupReps-1 && e.tr != nil {
			reg = e.observe(cfg.Pool)
			cfg.Compute = ct.wrap(e.tr, serve.NewComputer(cfg.Pool).Compute)
		}
		cost := e.tr.span("serve.new", spanCtx{}, 0, func(spanCtx) {
			if err == nil {
				d, err = startDaemon(cfg, client)
			}
		})
		if err != nil {
			e.fail(e.count("set-up"), "daemon set-up: %v", err)
			return
		}
		e.rec.SetupS = append(e.rec.SetupS, cost)
	}
	url := d.url + "/v1/experiments"

	warmReplies := make([]reply, len(warm))
	warmOps := make([]int, len(warm))
	warmStart := time.Now()
	for i, b := range warm {
		e.tr.span("op.warm-up", spanCtx{}, 0, func(spanCtx) { warmReplies[i] = post(client, url, b) })
		warmOps[i] = e.count("warm-up")
	}
	e.rec.RunS += time.Since(warmStart).Seconds()

	replies := make([]reply, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	busy0 := ct.busy()
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				due := t0.Add(stream[i].due)
				waitUntil(due)
				late := time.Since(due)
				e.tr.span("op.request", spanCtx{}, lane, func(spanCtx) { replies[i] = post(client, url, stream[i].body) })
				replies[i].latMs = float64(time.Since(due).Nanoseconds()) / 1e6
				replies[i].lateMs = float64(late.Nanoseconds()) / 1e6
			}
		}(w + 1)
	}
	wg.Wait()
	streamS := time.Since(t0).Seconds()
	e.rec.RunS += streamS

	// Every 200 body for one content address must be byte-identical,
	// whether it was a miss, a hit or coalesced.
	bodies := map[string][]byte{}
	reqOf := map[string][]byte{}
	keep := func(i int, r reply, req []byte) {
		if prev, ok := bodies[r.key]; ok {
			if !bytes.Equal(prev, r.body) {
				e.fail(i, "%s reply for %s differs from an earlier reply with the same key", r.cache, req)
			}
			return
		}
		bodies[r.key], reqOf[r.key] = r.body, req
		if err := checkBody(r.body); err != nil {
			e.fail(i, "%s: %v", req, err)
		}
	}
	for i, r := range warmReplies {
		if r.err != nil || r.status != http.StatusOK {
			e.fail(warmOps[i], "warm-up %s answered %d: %v %s", warm[i], r.status, r.err, r.body)
			continue
		}
		keep(warmOps[i], r, warm[i])
	}
	var ok, hits, coalesced, rejected, badRequests int
	var late, queueMs, computeMs []float64
	for k, r := range replies {
		i := e.record("request", r.latMs)
		late = append(late, r.lateMs)
		req := stream[k]
		switch {
		case r.err != nil:
			e.fail(i, "%s: %v", req.body, r.err)
			continue
		case r.status == http.StatusTooManyRequests:
			rejected++
		case r.status == http.StatusBadRequest:
			badRequests++
		}
		if r.status != req.want {
			e.fail(i, "%s answered %d, want %d", req.body, r.status, req.want)
			continue
		}
		if r.status != http.StatusOK {
			continue
		}
		ok++
		switch r.cache {
		case "hit":
			hits++
		case "coalesced":
			coalesced++
		case "miss":
			queueMs = append(queueMs, float64(r.queueNs)/1e6)
			computeMs = append(computeMs, float64(r.computeNs)/1e6)
		}
		keep(i, r, req.body)
	}
	e.output("hxd.keys", strconv.Itoa(len(bodies)))
	e.output("hxd.bodies", digestBodies(bodies))
	e.output("hxd.bad_requests", strconv.Itoa(badRequests))

	L := e.rec.Layers
	L["serve.ok_replies"] = float64(ok) // the base of the two ratios
	if ok > 0 {
		L["serve.hit_ratio"] = float64(hits) / float64(ok)
		L["serve.coalesced_ratio"] = float64(coalesced) / float64(ok)
	}
	L["serve.queue_p50_ms"] = percentile(queueMs, 50)
	L["serve.compute_p50_ms"] = percentile(computeMs, 50)
	L["serve.compute_p99_ms"] = percentile(computeMs, 99)
	L["serve.rejected"] = float64(rejected)
	L["gen.late_p99_ms"] = percentile(late, 99)
	if reg != nil {
		// The engine layers' times on hxd-mix are the computations of the
		// kinds that run them: netsim for the packet kinds, flowsim for
		// alltoall_flow. The batcher's busy share of the stream is the
		// daemon's load against its capacity.
		k := ct.byKind
		m := scrape(reg)
		e.netsimCounts(m, k[serve.KindAlltoallPacket]+k[serve.KindPermutation]+k[serve.KindResilience])
		L["flowsim.solve_s"] = k[serve.KindAlltoallFlow]
		e.flowCounts(m)
		L["serve.busy_frac"] = (ct.busy() - busy0) / streamS
	}

	if err := d.stop(); err != nil {
		e.fail(0, "daemon shutdown: %v", err)
	}
	e.restart(d.dir, bodies, reqOf)
	e.coldFirst(client, first)
	if e.tr != nil {
		e.timeCanonicalize(stream)
	}
}

// coldFirst measures first_req_ms: firstReps fresh daemons, each with its
// own pool, cache and journal, get the cold small alltoall_flow request as
// their first; first_req_ms is the median latency over the run. It runs after the
// stream, when the process's heap has reached its working size: sent at
// the start of a process, the same request ran about twice as slow for
// the process's first second (90 ms against 47 ms), and its median over
// twenty daemons spread by 48% over five seeds, which measured the
// process's warm-up rather than the daemon's cold path. Each request
// starts from a collected heap, as in a fresh hxd process; with the
// previous daemons' garbage left to the collector, the latencies within
// one process ranged from 43 to 97 ms. Every reply must be 200 and
// byte-identical.
func (e *iterEnv) coldFirst(client *http.Client, first []byte) {
	var ms []float64
	var body []byte
	for i := 0; i < firstReps; i++ {
		op := e.count("first")
		d, err := startDaemon(e.daemonConfig(filepath.Join(e.tmp, fmt.Sprintf("first%d", i))), client)
		if err != nil {
			e.fail(op, "daemon set-up: %v", err)
			return
		}
		runtime.GC()
		var r reply
		s := e.tr.span("op.first", spanCtx{}, 0, func(spanCtx) { r = post(client, d.url+"/v1/experiments", first) })
		ms = append(ms, s*1e3)
		switch {
		case r.err != nil || r.status != http.StatusOK:
			e.fail(op, "cold request answered %d: %v %s", r.status, r.err, r.body)
		case body == nil:
			body = r.body
			if err := checkBody(body); err != nil {
				e.fail(op, "%s: %v", first, err)
			}
		case !bytes.Equal(body, r.body):
			e.fail(op, "two fresh daemons answered %s differently", first)
		}
		if err := d.stop(); err != nil {
			e.fail(op, "daemon shutdown: %v", err)
		}
	}
	e.rec.FirstMs = ms
	e.output("first.digest", digestBytes(body))
}

// restart times serve.New on the stream's journal directory plus the
// replay, then checks that every result came back: each content address
// answers as a cache hit with the byte-identical body.
func (e *iterEnv) restart(dir string, bodies map[string][]byte, reqOf map[string][]byte) {
	var s *serve.Server
	var err error
	e.rec.Layers["journal.restart_s"] = e.tr.span("journal.restart", spanCtx{}, 0, func(spanCtx) {
		s, err = serve.New(e.daemonConfig(dir))
		if err == nil {
			s.WaitReplay()
		}
	})
	if err != nil {
		e.fail(0, "journal restart: %v", err)
		return
	}
	defer s.Close()
	e.rec.Layers["journal.replayed"] = float64(s.ReplayedResults)
	if s.ReplayedResults != len(bodies) || s.ReplayedPending != 0 {
		e.fail(0, "journal restart replayed %d results and %d pending, want %d and 0", s.ReplayedResults, s.ReplayedPending, len(bodies))
	}
	for key, body := range bodies {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/experiments", bytes.NewReader(reqOf[key])))
		if w.Code != http.StatusOK || w.Header().Get("X-Hxd-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), body) {
			e.fail(0, "after restart %s answered %d (%s) with a different body", reqOf[key], w.Code, w.Header().Get("X-Hxd-Cache"))
		}
	}
}

// timeCanonicalize times serve.Canonicalize over the stream's well-formed
// requests, repeated until the total is long enough to time.
func (e *iterEnv) timeCanonicalize(stream []mixReq) {
	var reqs []serve.Request
	for _, m := range stream {
		var r serve.Request
		if m.want == http.StatusOK && json.Unmarshal(m.body, &r) == nil {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		return
	}
	const reps = 20
	d := e.tr.span("serve.canon", spanCtx{}, 0, func(spanCtx) {
		for i := 0; i < reps; i++ {
			for _, r := range reqs {
				if _, err := serve.Canonicalize(r); err != nil {
					e.fail(0, "canonicalize %+v: %v", r, err)
				}
			}
		}
	})
	e.rec.Layers["serve.canon_us"] = d * 1e6 / float64(reps*len(reqs))
}

// checkBody checks the seed-independent invariants of a result body:
// bandwidth shares in (0, 1], positive permutation bandwidth, and
// non-empty sweeps.
func checkBody(body []byte) error {
	var v struct {
		Kind    string            `json:"kind"`
		Share   *float64          `json:"share"`
		MinGBps *float64          `json:"min_gbps"`
		Points  []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("reply body: %w", err)
	}
	switch v.Kind {
	case serve.KindAlltoallFlow, serve.KindAlltoallPacket, serve.KindAllreduce:
		if v.Share == nil || !(*v.Share > 0 && *v.Share <= 1) {
			return fmt.Errorf("share outside (0, 1] in %s", body)
		}
	case serve.KindPermutation:
		if v.MinGBps == nil || !(*v.MinGBps > 0) {
			return fmt.Errorf("non-positive permutation bandwidth in %s", body)
		}
	case serve.KindResilience, serve.KindSched:
		if len(v.Points) == 0 {
			return fmt.Errorf("empty sweep in %s", body)
		}
	default:
		return fmt.Errorf("unknown kind in %s", body)
	}
	return nil
}

// digestBodies hashes every (content address, body) pair in key order.
func digestBodies(bodies map[string][]byte) string {
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		b := sha256.Sum256(bodies[k])
		fmt.Fprintf(h, "%s %s\n", k, hex.EncodeToString(b[:]))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
