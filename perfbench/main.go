// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload against the greenps packages built
// from the enclosing checkout, checks every output against an oracle,
// and prints one JSON result line last. Run it from the checkout root
// through the wrapper, which builds it first:
//
//	bash perfbench/run.sh --workload stock-fanout --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs again with per-layer spans and the
// result carries the per-layer metrics. --workload all runs every
// workload, each in a child process of its own. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadMetrics reads the metric lists from BENCHMARK.json: the end-to-end
// metrics every workload reports, and the per-layer metrics of the
// traced run (a layer a workload does not exercise reports 0).
func loadMetrics(path string) (endToEnd, perLayer []metricDef, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, doc.PerLayer, nil
}

// workloadDef names a workload (BENCHMARK.json and README.md say why
// each exists).
type workloadDef struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"stock-fanout", runStockFanout},
	{"stock-selective", runStockSelective},
	{"reconfig-paper", runReconfigPaper},
	{"alloc-scale", runAllocScale},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives the span files of traced runs (spans/) and CRAM's
	// spilled candidate runs (spill/).
	outDir string
	stamp  map[string]string
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	// problems lists every checker finding (empty when correct).
	problems []string
	metrics  map[string]float64
	// notes are human-readable report lines printed before the result.
	notes []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a checker finding against one attempted operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 16, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and spill runs")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	if *name == "all" {
		return runAll(cfg)
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; known:", *name)
		for _, d := range workloads {
			fmt.Fprintf(os.Stderr, " %s", d.name)
		}
		fmt.Fprintln(os.Stderr, " all")
		return 2
	}

	endToEnd, perLayer, err := loadMetrics("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	stamp := environmentStamp(w.name, cfg)
	cfg.stamp = stamp
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.set("rss_peak_mb", peakRSSMiB())
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out, err := finish(w.name, stamp, res, defs, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(out)
	if len(res.problems) > 0 || res.failed > 0 {
		return 1
	}
	return 0
}

// metricValue and resultLine are the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish prints the stamp and the report lines and returns the result
// line: the metrics named by defs, each with its unit. A traced run
// fills the layers its workload does not exercise with 0; an untraced
// run that misses an end-to-end metric is a benchmark bug.
func finish(workload string, stamp map[string]string, res *result, defs []metricDef, zeroFill bool) (string, error) {
	sj, _ := json.Marshal(stamp)
	fmt.Printf("env %s\n", sj)
	for _, n := range res.notes {
		fmt.Printf("%s: %s\n", workload, n)
	}
	for _, p := range res.problems {
		fmt.Printf("%s: CHECK FAILED: %s\n", workload, p)
	}
	frac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("%s: failed_frac = %.6g fraction (%d of %d operations)\n", workload, frac, res.failed, res.attempted)
	line := resultLine{
		Correct:   len(res.problems) == 0 && res.failed == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok && !zeroFill {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%s: %s = %.6g %s\n", workload, d.Name, v, d.Unit)
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// runAll runs every workload in a child process of its own (so each
// rss_peak_mb covers one workload), echoes their output, and prints a
// combined result whose metric names carry the workload as a prefix.
func runAll(cfg runConfig) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	all := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace, "--out", cfg.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		var one resultLine
		if err != nil || json.Unmarshal(lastLine(out), &one) != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s failed: %v\n", w.name, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && one.Correct
		all.Attempted += one.Attempted
		all.Failed += one.Failed
		for n, v := range one.Metrics {
			all.Metrics[w.name+"/"+n] = v
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	end := len(b)
	for end > 0 && (b[end-1] == '\n' || b[end-1] == '\r') {
		end--
	}
	start := end
	for start > 0 && b[start-1] != '\n' {
		start--
	}
	return b[start:end]
}

// since reports seconds elapsed from t as a float.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
