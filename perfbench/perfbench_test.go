package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as hxbench's child process: the
// run loop re-executes its own binary with childEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const specPath = "../BENCHMARK.json"

// runTiny runs one workload at tiny scale and returns the exit code and
// the parsed final line.
func runTiny(t *testing.T, workload string, trace int, extra ...string) (int, result, string) {
	t.Helper()
	args := append([]string{"-workload", workload, "-scale", "tiny", "-seconds", "0", "-min-iters", "2",
		"-trace", map[int]string{0: "0", 1: "1"}[trace], "-spec", specPath, "-out", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := runMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q is not a result: %v\nstderr: %s", workload, lines[len(lines)-1], err, stderr.String())
	}
	return code, res, stdout.String()
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks that exactly the metrics BENCHMARK.json names come out, each
// with its unit, and that the end-to-end ones are never zero.
func TestEveryMetricEmitted(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, hxbench implements %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for trace, want := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			code, res, out := runTiny(t, w.Name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongExpectedValueFails checks that an output differing from the
// expected value fails the run: correct=false, a failed operation, exit 1.
func TestWrongExpectedValueFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "expected.json")
	wrong := `{"tiny": {"flow-large-cold": {"1": {"alltoall_flow.share": "0.5"}}}}`
	if err := os.WriteFile(path, []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	code, res, out := runTiny(t, "flow-large-cold", 0, "-expected", path)
	if code != 1 || res.Correct || res.Failed == 0 {
		t.Fatalf("wrong expected value: exit %d, result %+v, want exit 1 and a failed operation\n%s", code, res, out)
	}
	if !strings.Contains(out, `alltoall_flow.share`) {
		t.Errorf("report does not name the mismatching output:\n%s", out)
	}
}

// TestExpectedCoversDefaultSeed checks that every workload has committed
// expected outputs for the default seed at both scales.
func TestExpectedCoversDefaultSeed(t *testing.T) {
	table, err := loadExpected("")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"full", "tiny"} {
		for w := range workloads {
			if len(table[sc][w]["1"]) == 0 {
				t.Errorf("no expected outputs for %s at scale %s, seed 1", w, sc)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7}, [3]float64{0.8, 1.0, 1.2}},
	} {
		q1, q2, q3 := quartiles(c.v)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
				break
			}
		}
	}
}

// TestCompareVerdicts checks the comparator's verdicts: a regression
// beyond the bound, a steady metric, a spread too wide to tell, a run that
// failed its checks, and runs at another scale kept apart.
func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.1},
	}}
	runs := func(run, setup, cpu []float64) []savedRun {
		var out []savedRun
		for i := range run {
			out = append(out, savedRun{Workload: "w", Scale: "full", Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"run_s": {Value: run[i]}, "setup_s": {Value: setup[i]}, "cpu_s": {Value: cpu[i]},
			}}})
		}
		return out
	}
	old := runs([]float64{1, 1.01, 0.99, 1}, []float64{1, 1, 1, 1}, []float64{1, 2, 0.5, 1.5})
	cur := runs([]float64{1.3, 1.31, 1.29, 1.3}, []float64{1.01, 1, 0.99, 1}, []float64{1, 2, 0.5, 1.5})
	rows, regressed := compareRuns(sp, old, cur)
	if len(rows) != 1 || !regressed {
		t.Fatalf("rows %q regressed=%v, want one row and a regression", rows, regressed)
	}
	for _, want := range []string{"w full", "run_s 1→1.3 s", "REGRESSED", "setup_s", "unchanged", "cpu_s", "unresolved"} {
		if !strings.Contains(rows[0], want) {
			t.Errorf("row %q lacks %q", rows[0], want)
		}
	}

	// A faster run that failed its checks is FAILED, not improved.
	fast := runs([]float64{0.5, 0.5, 0.5, 0.5}, []float64{1, 1, 1, 1}, []float64{1, 1, 1, 1})
	fast[2].Result.Correct, fast[2].Result.Failed = false, 1
	rows, bad := compareRuns(sp, old, fast)
	if len(rows) != 1 || !bad || !strings.Contains(rows[0], "FAILED") || strings.Contains(rows[0], "improved") {
		t.Errorf("failed new run: rows %q bad=%v, want one FAILED row and bad", rows, bad)
	}

	// Tiny-scale runs are compared with tiny-scale runs only.
	tiny := runs([]float64{9, 9, 9, 9}, []float64{9, 9, 9, 9}, []float64{9, 9, 9, 9})
	for i := range tiny {
		tiny[i].Scale = "tiny"
	}
	rows, bad = compareRuns(sp, old, append(append([]savedRun(nil), old...), tiny...))
	if len(rows) != 1 || bad || !strings.Contains(rows[0], "w full") {
		t.Errorf("old vs old plus tiny runs: rows %q bad=%v, want one unchanged full row", rows, bad)
	}
}

// TestSelfTime checks that a layer's self time excludes the union of its
// children's intervals, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{Name: "op.x", ID: 1, Start: 0, End: 100 * ms},
		{Name: "netsim.run", ID: 2, Parent: 1, Start: 10 * ms, End: 50 * ms},
		{Name: "netsim.run", ID: 3, Parent: 1, Start: 30 * ms, End: 70 * ms},
	}}
	self := tr.selfTimes()
	if got, want := self["op"], 0.040; math.Abs(got-want) > 1e-9 {
		t.Errorf("op self time %v, want %v", got, want)
	}
	if got, want := self["netsim"], 0.080; math.Abs(got-want) > 1e-9 {
		t.Errorf("netsim self time %v, want %v", got, want)
	}
}

// TestMixComposition checks that the hxd-mix stream is a function of the
// seed and that its composition does not depend on it.
func TestMixComposition(t *testing.T) {
	sc := scales["full"]
	count := func(seed int64) (bad, total int) {
		_, _, s := buildMix(sc, seed)
		for _, m := range s {
			if m.want != 200 {
				bad++
			}
		}
		return bad, len(s)
	}
	_, _, a := buildMix(sc, 7)
	_, _, b := buildMix(sc, 7)
	if len(a) != len(b) {
		t.Fatal("same seed, different streams")
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].due != b[i].due {
			t.Fatalf("same seed, request %d differs", i)
		}
	}
	bad1, n1 := count(1)
	bad2, n2 := count(2)
	if bad1 != bad2 || n1 != n2 {
		t.Errorf("seed 1: %d malformed of %d; seed 2: %d of %d; want equal", bad1, n1, bad2, n2)
	}
}
