// Command hxbench is the repository's end-to-end benchmark. It
// runs one workload (see README.md) as a series of cold iterations, each
// in a fresh child process, for a fixed time; checks every simulated
// result; and prints each metric named in BENCHMARK.json with its unit,
// ending with one JSON result line.
//
//	hxbench run -workload flow-large-cold -seed 1 -seconds 20 -trace 0
//	hxbench compare old.jsonl new.jsonl
//	hxbench expect -workload packet-small -seed 1
//
// perfbench/run.py builds it and forwards the benchmark command line.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a child process: it runs exactly one iteration and
// prints its iterRecord.
const childEnv = "HXBENCH_CHILD"

// defaultSeed is the seed whose outputs expected.json pins.
const defaultSeed = 1

// runMargin is how long a run may go on after -seconds are up, for the
// iterations it must still finish; the run, child processes included, is
// stopped after -seconds plus runMargin.
const runMargin = 150 * time.Second

//go:embed expected.json
var expectedJSON []byte

func main() { os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr)) }

func dispatch(args []string, stdout, stderr io.Writer) int {
	if os.Getenv(childEnv) != "" {
		return childMain(args, stdout, stderr)
	}
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: hxbench run|compare|expect [flags]")
		return 2
	}
	switch args[0] {
	case "run":
		return runMain(args[1:], stdout, stderr)
	case "compare":
		return compareMain(args[1:], stdout, stderr)
	case "expect":
		return expectMain(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "hxbench: unknown command %q\n", args[0])
	return 2
}

// spec is the part of BENCHMARK.json that hxbench uses.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// expectedTable is expected.json: scale → workload → seed → outputs.
type expectedTable map[string]map[string]map[string]map[string]string

func loadExpected(path string) (expectedTable, error) {
	b := expectedJSON
	if path != "" {
		var err error
		if b, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var t expectedTable
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("expected outputs: %w", err)
	}
	return t, nil
}

// childMain runs one iteration and prints its record as one JSON line.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	scaleName := fs.String("scale", "full", "full or tiny")
	traced := fs.Bool("traced", false, "record spans")
	traceOut := fs.String("trace-out", "", "Chrome trace JSON output of a traced iteration")
	tmp := fs.String("tmp", "", "scratch directory")
	expectedPath := fs.String("expected", "", "expected outputs file (default: the committed table)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	sc, okScale := scales[*scaleName]
	if !ok || !okScale {
		fmt.Fprintf(stderr, "hxbench: unknown workload %q or scale %q\n", *name, *scaleName)
		return 2
	}
	table, err := loadExpected(*expectedPath)
	if err != nil {
		fmt.Fprintln(stderr, "hxbench:", err)
		return 2
	}
	e := newIterEnv(sc, *seed, *tmp, *traced)
	run(e)
	e.finish(table[sc.Name][*name][fmt.Sprint(*seed)])
	if e.tr != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = e.tr.writeChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "hxbench: trace:", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(e.rec); err != nil {
		return 1
	}
	return 0
}

// iteration is one finished child process.
type iteration struct {
	traced bool
	rec    iterRecord
	cpuS   float64
	rssMB  float64
}

// runOptions are the run command's flags.
type runOptions struct {
	workload, scale, specPath, expected, out string
	seed                                     int64
	seconds                                  float64
	trace, minIters                          int
}

func runMain(args []string, stdout, stderr io.Writer) int {
	var o runOptions
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name from BENCHMARK.json")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep starting cold iterations")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	fs.IntVar(&o.minIters, "min-iters", 3, "iterations to run even when -seconds is up")
	fs.StringVar(&o.scale, "scale", "full", "full (the benchmark) or tiny (hxbench's own tests)")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark definition")
	fs.StringVar(&o.expected, "expected", "", "expected outputs file (default: the committed table)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces, scratch files and results.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := run(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hxbench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the run loop and prints the report; an error means no
// result could be produced.
func run(o runOptions, stdout, stderr io.Writer) (*result, error) {
	sp, err := loadSpec(o.specPath)
	if err != nil {
		return nil, err
	}
	listed := false
	for _, w := range sp.Workloads {
		listed = listed || w.Name == o.workload
	}
	if _, ok := workloads[o.workload]; !ok || !listed {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if _, ok := scales[o.scale]; !ok {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("%s-%s-seed%d", o.workload, o.scale, o.seed)
	tmp := filepath.Join(o.out, "tmp", fmt.Sprintf("%s-%d", tag, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	hdr := machineHeader()
	hb, _ := json.Marshal(hdr)
	fmt.Fprintf(stdout, "# machine %s\n", hb)
	steal0, total0 := cpuSteal()

	// Iterations start until the time is up, and at least minIters of
	// them, so that no median rests on a single cold process. A traced
	// run alternates untraced and traced iterations so that the tracing
	// overhead compares like with like.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+runMargin)
	defer cancel()
	start := time.Now()
	var iters []iteration
	for i := 0; ; i++ {
		traced := o.trace == 1 && i%2 == 1
		if i >= o.minIters && time.Since(start).Seconds() >= o.seconds {
			break
		}
		dir := filepath.Join(tmp, fmt.Sprint(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-scale", o.scale, "-tmp", dir}
		if o.expected != "" {
			args = append(args, "-expected", o.expected)
		}
		if traced {
			args = append(args, "-traced", "-trace-out", filepath.Join(o.out, tag+".trace.json"))
		}
		it, err := runChild(ctx, exe, args, stderr)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		it.traced = traced
		iters = append(iters, it)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	res, report := summarize(sp, o, iters)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor gave to other guests while this one wanted
		// to run; it slows every timing, the millisecond ones most.
		report = append(report, fmt.Sprintf("# host CPU steal %.1f%% of CPU time during the run (a run under steal is not comparable)", 100*float64(steal1-steal0)/float64(total1-total0)))
	}
	for _, line := range report {
		fmt.Fprintln(stdout, line)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	if err := appendResult(filepath.Join(o.out, "results.jsonl"), hdr, o, len(iters), res); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	return res, nil
}

// runChild runs one iteration in a fresh process and reads its record
// and resource usage.
func runChild(ctx context.Context, exe string, args []string, stderr io.Writer) (iteration, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return iteration{}, fmt.Errorf("child %v: %w", args, err)
	}
	var it iteration
	if err := json.Unmarshal(out.Bytes(), &it.rec); err != nil {
		return iteration{}, fmt.Errorf("child record: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		it.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		it.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return it, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// summarize turns the iterations into the result and the report lines
// printed before it.
func summarize(sp *spec, o runOptions, iters []iteration) (*result, []string) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var report []string
	var plain, traced []iteration
	var ref map[string]string
	for i, it := range iters {
		res.Attempted += it.rec.Attempted
		res.Failed += it.rec.Failed
		for _, v := range it.rec.Violations {
			report = append(report, fmt.Sprintf("# FAIL iteration %d: %s", i, v))
		}
		// Equal seeds must give equal outputs, traced or not.
		if ref == nil {
			ref = it.rec.Outputs
		} else if !equalOutputs(ref, it.rec.Outputs) {
			res.Failed++
			report = append(report, fmt.Sprintf("# FAIL iteration %d: outputs %v differ from iteration 0's %v", i, it.rec.Outputs, ref))
		}
		if it.traced {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
		report = append(report, fmt.Sprintf("# iteration %d traced=%v run_s=%.4f cpu_s=%.3f peak_rss_mb=%.1f ops=%d failed=%d op_p50_ms=%.4g op_p99_ms=%.4g",
			i, it.traced, it.rec.RunS, it.cpuS, it.rssMB, it.rec.Attempted, it.rec.Failed,
			percentile(it.rec.OpsMs, 50), percentile(it.rec.OpsMs, 99)))
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	failFrac := 0.0
	if res.Attempted > 0 {
		failFrac = float64(res.Failed) / float64(res.Attempted)
	}
	// req_p50_ms is the median over iterations of each iteration's p50:
	// a batch iteration makes one or two experiment calls of different
	// kinds, and a median pooled over them would fall between the kinds.
	var setup, runS, cpu, rss, first, p50, ops []float64
	for _, it := range plain {
		setup = append(setup, it.rec.SetupS...)
		runS = append(runS, it.rec.RunS)
		cpu = append(cpu, it.cpuS)
		rss = append(rss, it.rssMB)
		first = append(first, it.rec.FirstMs...)
		p50 = append(p50, percentile(it.rec.OpsMs, 50))
		ops = append(ops, it.rec.OpsMs...)
	}
	values := map[string]float64{
		"setup_s": median(setup), "run_s": median(runS), "cpu_s": median(cpu),
		"peak_rss_mb": median(rss), "first_req_ms": median(first),
		"req_p50_ms": median(p50), "req_p99_ms": percentile(ops, 99),
		"fail_frac": failFrac,
	}
	report = append(report, fmt.Sprintf("# samples: %d iterations (%d traced), %d setups, %d operations; fail_frac=%d/%d",
		len(iters), len(traced), len(setup), len(ops), res.Failed, res.Attempted))
	var late []float64
	for _, it := range plain {
		if v, ok := it.rec.Layers["gen.late_p99_ms"]; ok {
			late = append(late, v)
		}
	}
	if len(late) > 0 {
		report = append(report, fmt.Sprintf("# open-loop generator late p99 %.3g ms (request latencies are not valid when this is high)", median(late)))
	}
	metrics := sp.EndToEnd
	if o.trace == 1 {
		metrics = sp.PerLayer
		layers := map[string][]float64{}
		self := map[string][]float64{}
		var tracedRun []float64
		for _, it := range traced {
			for k, v := range it.rec.Layers {
				layers[k] = append(layers[k], v)
			}
			for k, v := range it.rec.SelfS {
				self[k] = append(self[k], v)
			}
			tracedRun = append(tracedRun, it.rec.RunS)
		}
		for k, v := range layers {
			values[k] = median(v)
		}
		values["trace.overhead_s"] = median(tracedRun) - median(runS)
		report = append(report, layerReport(values, self, median(tracedRun))...)
		named := map[string]bool{}
		for _, m := range sp.PerLayer {
			named[m.Name] = true
		}
		var extra []string
		for k := range layers {
			if !named[k] {
				extra = append(extra, fmt.Sprintf("# %s %.6g", k, values[k]))
			}
		}
		sort.Strings(extra)
		report = append(report, extra...)
	}
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok {
			v = 0 // a layer this workload never calls
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		report = append(report, fmt.Sprintf("%-26s %14.6g %s", m.Name, v, m.Unit))
	}
	return res, report
}

// layerReport lists each layer's self time and its share of the traced
// run_s, largest first.
func layerReport(values map[string]float64, self map[string][]float64, runS float64) []string {
	type row struct {
		name string
		s    float64
	}
	var rows []row
	for k, v := range self {
		rows = append(rows, row{k, median(v)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].s > rows[j].s })
	out := []string{fmt.Sprintf("# layer self time (traced run_s %.4f s; shares of run_s)", runS)}
	for _, r := range rows {
		share := 0.0
		if runS > 0 {
			share = r.s / runS
		}
		out = append(out, fmt.Sprintf("#   %-10s %10.4f s %6.1f%%", r.name, r.s, 100*share))
	}
	// The named call sums, as shares of run_s.
	var named []row
	for _, k := range []string{"routing.warm_s", "flowsim.solve_s", "netsim.run_s", "alloc.fig8_s", "sched.run_iso_s", "sched.run_joint_s"} {
		if v := values[k]; v > 0 {
			named = append(named, row{k, v})
		}
	}
	sort.Slice(named, func(i, j int) bool { return named[i].s > named[j].s })
	if len(named) > 0 && runS > 0 {
		out = append(out, fmt.Sprintf("# largest layer share of run_s: %s = %.1f%%", named[0].name, 100*named[0].s/runS))
	}
	return out
}

func equalOutputs(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// appendResult adds one record to the results file the comparator reads.
func appendResult(path string, hdr machine, o runOptions, iters int, res *result) error {
	rec := struct {
		Machine    machine `json:"machine"`
		Workload   string  `json:"workload"`
		Scale      string  `json:"scale"`
		Seed       int64   `json:"seed"`
		Trace      int     `json:"trace"`
		Seconds    float64 `json:"seconds"`
		Iterations int     `json:"iterations"`
		Result     *result `json:"result"`
	}{hdr, o.workload, o.scale, o.seed, o.trace, o.seconds, iters, res}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// expectMain prints the outputs of one untraced iteration as an
// expected.json entry, for updating the committed table when a change
// legitimately alters simulated results.
func expectMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("expect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	scaleName := fs.String("scale", "full", "full or tiny")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	sc, okScale := scales[*scaleName]
	if !ok || !okScale {
		fmt.Fprintf(stderr, "hxbench: unknown workload %q or scale %q\n", *name, *scaleName)
		return 2
	}
	dir := filepath.Join(".bench_build", "perfbench")
	err := os.MkdirAll(dir, 0o755)
	var tmp string
	if err == nil {
		tmp, err = os.MkdirTemp(dir, "expect")
	}
	if err != nil {
		fmt.Fprintln(stderr, "hxbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := newIterEnv(sc, *seed, tmp, false)
	run(e)
	e.finish(nil)
	for _, v := range e.rec.Violations {
		fmt.Fprintln(stderr, "hxbench: FAIL", v)
	}
	b, _ := json.MarshalIndent(map[string]any{sc.Name: map[string]any{*name: map[string]any{fmt.Sprint(*seed): e.rec.Outputs}}}, "", "  ")
	fmt.Fprintf(stdout, "%s\n", b)
	if e.rec.Failed > 0 {
		return 1
	}
	return 0
}

// machine is the header every result carries, so results from different
// machine classes are never compared silently.
type machine struct {
	GitSHA string `json:"git_sha"`
	// SourceSHA hashes the Go sources and go.mod files under the working
	// directory, which identifies the code where there is no git history.
	SourceSHA  string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	MemTotalMB int64  `json:"mem_total_mb"`
}

func machineHeader() machine {
	m := machine{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GitSHA: "none", SourceSHA: sourceDigest(".")}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	m.CPUModel = procField("/proc/cpuinfo", "model name")
	var kb int64
	fmt.Sscanf(procField("/proc/meminfo", "MemTotal"), "%d", &kb)
	m.MemTotalMB = kb / 1024
	return m
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// cpuSteal returns the steal and total jiffies of all CPUs from
// /proc/stat (zeros where it cannot be read).
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // "cpu user nice system idle iowait irq softirq steal ..."
	if len(f) == 0 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:min(len(f), 9)] { // guest time is already in user
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// procField returns the value of the first "key: value" line of a /proc
// file ("" when absent).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
