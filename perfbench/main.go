// Command perfbench is the repository's benchmark: four seeded
// workloads over the live runtime (internal/streamrt), its transport,
// and the ds2d scaling service, each checked against the replay
// oracles. See README.md for what each workload measures and why.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload q1-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer split with --trace 1). Everything else goes to
// standard error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds the benchmark's scratch files (savepoints, span dumps),
// relative to the working directory, which is the checkout root.
const outDir = ".bench_build/out"

// runEnv is what a workload gets: its seed, its measuring budget, the
// tracer (nil in untraced runs), and where to log and write files.
type runEnv struct {
	seed   int64
	budget time.Duration
	tr     *tracer
	probe  *hostProbe
	dir    string
	logf   func(format string, args ...any)
}

// share returns frac of the measuring budget.
func (e *runEnv) share(frac float64) time.Duration {
	return time.Duration(frac * float64(e.budget))
}

// workload runs one benchmark workload, recording into res.
type workload func(env *runEnv, res *results) error

var workloads = map[string]workload{
	"q1-steady":   runQ1Steady,
	"q5-rescale":  runQ5Rescale,
	"q1-dist":     runQ1Dist,
	"ds2d-table4": runTable4,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer split")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	started := time.Now()
	env := &runEnv{
		seed:   *seed,
		probe:  &hostProbe{},
		budget: time.Duration(*seconds * float64(time.Second)),
		dir:    filepath.Join(outDir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
		logf: func(f string, a ...any) {
			fmt.Fprintf(os.Stderr, "%7.3fs "+f+"\n", append([]any{time.Since(started).Seconds()}, a...)...)
		},
	}
	defer os.RemoveAll(env.dir)
	res := newResults()
	defs := endToEnd
	if *trace == 1 {
		// The untraced pass gives the throughput the traced pass is
		// compared with; its other figures are discarded.
		base := newResults()
		if err := w(env, base); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (untraced pass): %v\n", *name, err)
			return 1
		}
		env.tr = newTracer()
		if err := w(env, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		res.problems = append(res.problems, base.problems...)
		res.attempted += base.attempted
		res.failed += base.failed
		if b, t := base.vals["throughput_rps"], res.vals["throughput_rps"]; b > 0 {
			res.set("obs.trace_overhead_frac", (b-t)/b)
		}
		res.set("host.probe_ms", medianDuration(env.probe.times))
		spanFile := fmt.Sprintf("spans-%s-%d.json", *name, *seed)
		if err := writeSpans(filepath.Join(outDir, "spans"), spanFile, env.tr.snapshot(), os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		defs = perLayer
	} else {
		if err := w(env, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		res.set("mem_peak_mb", peakRSSMB())
		slow := env.probe.slowdown()
		env.logf("host: median probe %.3f ms over %d samples, %.3f× the reference %v", slow*probeRef.Seconds()*1e3, len(env.probe.times), slow, probeRef)
		logValues(res, defs, "measured")
		toReference(res, slow)
	}
	logValues(res, defs, "reported")
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	if err := res.emit(os.Stdout, defs, *trace == 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if len(res.problems) > 0 || res.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// logValues prints every metric of defs that res holds to standard
// error, for people reading a run.
func logValues(res *results, defs []metricDef, what string) {
	fmt.Fprintf(os.Stderr, "%s:\n", what)
	for _, d := range defs {
		if v, ok := res.vals[d.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}
