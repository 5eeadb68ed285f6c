package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// savedRun is one line of results.jsonl.
type savedRun struct {
	Machine  machine `json:"machine"`
	Workload string  `json:"workload"`
	Scale    string  `json:"scale"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
}

// compareMain diffs two result sets (results.jsonl files, e.g. from the
// parent commit and from a change) within BENCHMARK.json's bounds and
// prints one row per workload and scale. It exits 1 when a metric
// regressed or a run on either side failed its checks.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: hxbench compare [-spec BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "hxbench:", err)
		return 2
	}
	old, err := loadRuns(fs.Arg(0))
	if err == nil {
		var cur []savedRun
		if cur, err = loadRuns(fs.Arg(1)); err == nil {
			rows, bad := compareRuns(sp, old, cur)
			for _, r := range rows {
				fmt.Fprintln(stdout, r)
			}
			if bad {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "hxbench:", err)
	return 2
}

func loadRuns(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r savedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so spreads match the acceptance check.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(v []float64) (med, spread float64) {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		if q3 == q1 {
			return 0, 0
		}
		return 0, math.Inf(1)
	}
	return q2, (q3 - q1) / math.Abs(q2)
}

// runGroup is the untraced runs of one workload at one scale.
type runGroup struct {
	values map[string][]float64
	hdr    machine
	runs   int
	failed int // runs whose checks failed
}

// groupRuns keys untraced runs by "<workload> <scale>", so tiny-scale runs
// are never pooled with the benchmark's.
func groupRuns(runs []savedRun) map[string]*runGroup {
	out := map[string]*runGroup{}
	for _, r := range runs {
		if r.Trace != 0 {
			continue
		}
		key := r.Workload + " " + r.Scale
		g := out[key]
		if g == nil {
			g = &runGroup{values: map[string][]float64{}}
			out[key] = g
		}
		g.hdr = r.Machine
		g.runs++
		if !r.Result.Correct || r.Result.Failed > 0 {
			g.failed++
		}
		for k, m := range r.Result.Metrics {
			g.values[k] = append(g.values[k], m.Value)
		}
	}
	return out
}

// compareRuns builds one row per workload and scale: for every end-to-end
// metric the old and new medians, the relative change, and a verdict. A
// metric whose spread on either side exceeds its bound is "unresolved" —
// the runs cannot tell a change within the bound from noise — unless
// every new run is better than every old one. A side with a run that
// failed its checks gets no verdicts: the row reads FAILED, since a gain
// does not count when operations fail. bad reports a regression or a
// failure.
func compareRuns(sp *spec, old, cur []savedRun) (rows []string, bad bool) {
	og, ng := groupRuns(old), groupRuns(cur)
	var names []string
	for k := range ng {
		if og[k] != nil {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		o, n := og[w], ng[w]
		if o.failed > 0 || n.failed > 0 {
			rows = append(rows, fmt.Sprintf("%-21s | FAILED: %d of %d old and %d of %d new runs failed their checks", w, o.failed, o.runs, n.failed, n.runs))
			bad = true
			continue
		}
		var cells []string
		if a, b := o.hdr, n.hdr; a.CPUModel != b.CPUModel || a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS {
			cells = append(cells, fmt.Sprintf("MACHINE DIFFERS (%s ×%d vs %s ×%d)", a.CPUModel, a.NProc, b.CPUModel, b.NProc))
		}
		for _, m := range sp.EndToEnd {
			a, b := o.values[m.Name], n.values[m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			am, as := spreadOf(a)
			bm, bs := spreadOf(b)
			change := 0.0
			if am != 0 {
				change = (bm - am) / math.Abs(am)
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "unchanged"
			switch {
			case (as > m.Bound || bs > m.Bound) && allBetter(a, b, m.Better):
				verdict = "improved"
			case as > m.Bound || bs > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, bad = "REGRESSED", true
			case -worse > m.Bound:
				verdict = "improved"
			}
			cells = append(cells, fmt.Sprintf("%s %.4g→%.4g %s (%+.1f%%, spread %.1f%%/%.1f%%, bound %.0f%%) %s",
				m.Name, am, bm, m.Unit, 100*change, 100*as, 100*bs, 100*m.Bound, verdict))
		}
		rows = append(rows, fmt.Sprintf("%-21s | %s", w, strings.Join(cells, " | ")))
	}
	return rows, bad
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, cur []float64, better string) bool {
	if len(old) < 2 || len(cur) < 2 {
		return false
	}
	oMin, oMax := minMax(old)
	cMin, cMax := minMax(cur)
	if better == "higher" {
		return cMin > oMax
	}
	return cMax < oMin
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
