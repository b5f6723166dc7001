package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one reported metric and its unit. The lists below
// must match BENCHMARK.json (a test holds them together).
type metricDef struct{ Name, Unit string }

// endToEnd are the untraced run's metrics. Every workload reports all
// of them; README.md gives each workload's reading of "item".
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"cpu_ns_per_rec", "ns"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"mem_peak_mb", "MiB"},
}

// hostExp says how each end-to-end metric follows the host's speed: a
// time of CPU work grows in proportion to the host's slowdown (1), a
// rate shrinks (-1). Peak memory does not follow it, and neither does
// set-up, which is mostly waiting for goroutines, listeners and the
// first batch: in three ten-run sets its medians moved by up to 24%
// when scaled and by up to 12% unscaled.
var hostExp = map[string]float64{
	"throughput_rps":  -1,
	"cpu_ns_per_rec":  1,
	"latency_p50_ms":  1,
	"latency_tail_ms": 1,
}

// toReference scales the end-to-end times and rates to the reference
// host speed, given the run's slowdown against it.
func toReference(r *results, slowdown float64) {
	for name, exp := range hostExp {
		if v, ok := r.vals[name]; ok {
			r.vals[name] = v / math.Pow(slowdown, exp)
		}
	}
}

// liveOps are the operators of the shipped q1 and q5 pipelines whose
// §3 time split the traced run reports.
var liveOps = []string{"bids", "q1-map", "q1-sink", "q5-window", "q5-sink"}

// opFields are the per-operator layer metrics, from Collect windows.
var opFields = []metricDef{
	{"busy_frac", "fraction"},
	{"deser_ns", "ns"},
	{"proc_ns", "ns"},
	{"ser_ns", "ns"},
	{"wait_in_frac", "fraction"},
	{"wait_out_frac", "fraction"},
	{"rps", "1/s"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, op := range liveOps {
		for _, f := range opFields {
			out = append(out, metricDef{"streamrt." + op + "." + f.Name, f.Unit})
		}
	}
	out = append(out,
		metricDef{"streamrt.bids.lag_records", "count"},
		metricDef{"streamrt.bids.achieved_rps", "1/s"},
	)
	for _, ph := range []string{"drain", "snapshot", "router_rebuild", "transfer", "restart", "first_record", "downtime"} {
		out = append(out, metricDef{"streamrt.rescale." + ph + "_ms", "ms"})
	}
	return append(out,
		metricDef{"streamrt.rescale.call_ms", "ms"},
		metricDef{"streamrt.checkpoint.bytes", "bytes"},
		metricDef{"streamrt.checkpoint.store_save_ms", "ms"},
		metricDef{"streamrt.checkpoint.store_load_ms", "ms"},
		metricDef{"streamrt.checkpoint.savepoint_ms", "ms"},
		metricDef{"streamrt.checkpoint.restore_ms", "ms"},
		metricDef{"streamrt.link.bytes_per_s", "bytes/s"},
		metricDef{"streamrt.link.frames_per_s", "1/s"},
		metricDef{"streamrt.link.bytes_per_frame", "bytes"},
		metricDef{"streamrt.link.stalls_per_s", "1/s"},
		metricDef{"nexmark.bid_gen_ns", "ns"},
		metricDef{"nexmark.bidcodec.encode_ns", "ns"},
		metricDef{"nexmark.bidcodec.decode_ns", "ns"},
		metricDef{"service.register_ms", "ms"},
		metricDef{"service.report_ms", "ms"},
		metricDef{"service.poll_ms", "ms"},
		metricDef{"service.ack_ms", "ms"},
		metricDef{"service.retry_frac", "fraction"},
		metricDef{"service.table4_s", "s"},
		metricDef{"engine.interval_ms", "ms"},
		metricDef{"core.manager_interval_us", "us"},
		metricDef{"proc.allocs_per_rec", "count"},
		metricDef{"proc.alloc_bytes_per_rec", "bytes"},
		metricDef{"proc.gc_cpu_frac", "fraction"},
		metricDef{"obs.trace_overhead_frac", "fraction"},
		metricDef{"host.probe_ms", "ms"},
	)
}()

// results accumulates one run's metrics, operation accounting and
// correctness verdict.
type results struct {
	vals      map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newResults() *results { return &results{vals: make(map[string]float64)} }

func (r *results) set(name string, v float64) { r.vals[name] = v }

// op accounts one checked operation (or n records of one): attempted
// always, failed when err is non-nil.
func (r *results) op(n int64, err error) {
	r.attempted += n
	if err != nil {
		r.failed += n
		r.fail(err)
	}
}

// opCount accounts n attempted items of which bad failed.
func (r *results) opCount(n, bad int64) {
	r.attempted += n
	r.failed += bad
}

// fail records a correctness problem; the run then reports
// correct=false.
func (r *results) fail(err error) { r.problems = append(r.problems, err.Error()) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit writes the result line for defs. End-to-end metrics must all be
// measured and positive; a missing per-layer metric is a layer the
// workload did not exercise and reads 0.
func (r *results) emit(w io.Writer, defs []metricDef, required bool) error {
	line := resultLine{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok && !required {
			v, ok = 0, true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (required && v <= 0) {
			missing = append(missing, d.Name)
			continue
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
