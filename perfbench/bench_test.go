package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"ds2/internal/metrics"
	"ds2/internal/nexmark"
	"ds2/internal/streamrt"
)

func unitSamples(vals ...float64) []metrics.LatencySample {
	out := make([]metrics.LatencySample, len(vals))
	for i, v := range vals {
		out[i] = metrics.LatencySample{Latency: v, Weight: 1}
	}
	return out
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{11, 1 - 10.0/11, true},
		{100, 0.9, true},
		{1000, 0.99, true},
		{1_000_000, 0.99, true},
	} {
		got, ok := tailLevel(tc.n, 0.99)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestWeightedQuantile(t *testing.T) {
	// 1..100 with unit weights: the p50 is 50, the p90 is 90.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // unsorted on purpose
	}
	if q := weightedQuantile(unitSamples(vals...), 0.5); q != 50 {
		t.Errorf("p50 = %v, want 50", q)
	}
	if q := weightedQuantile(unitSamples(vals...), 0.9); q != 90 {
		t.Errorf("p90 = %v, want 90", q)
	}
	// A heavy sample carries its weight: 1 (weight 3) and 10 (weight 1).
	s := []metrics.LatencySample{{Latency: 10, Weight: 1}, {Latency: 1, Weight: 3}}
	if q := weightedQuantile(s, 0.75); q != 1 {
		t.Errorf("weighted p75 = %v, want 1", q)
	}
	if q := weightedQuantile(s, 0.76); q != 10 {
		t.Errorf("weighted p76 = %v, want 10", q)
	}
}

func TestSummarizeCapsTheTail(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	sum, err := summarize(unitSamples(vals...), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// 200 samples support p95 at most: exactly ten lie above 190.
	if sum.TailLevel != 0.95 || sum.Tail != 190 || sum.P50 != 100 || sum.N != 200 {
		t.Errorf("summary %+v, want p50 100, p95 190 over 200", sum)
	}
	if _, err := summarize(unitSamples(1, 2, 3), 0.99); err == nil {
		t.Error("three samples gave a tail percentile")
	}
}

func TestSourceLag(t *testing.T) {
	if got := sourceLag(200_000, 0.1, 19_744); got != 256 {
		t.Errorf("lag = %v, want 256 (one batch behind)", got)
	}
	if got := sourceLag(200_000, 0.1, 20_256); got != -256 {
		t.Errorf("lag = %v, want -256 (a burst ahead)", got)
	}
	iv := streamrt.Interval{Windows: []metrics.WindowMetrics{
		{ID: metrics.InstanceID{Operator: nexmark.SrcBids, Index: 0}, Pushed: 700},
		{ID: metrics.InstanceID{Operator: nexmark.SrcBids, Index: 1}, Pushed: 300},
		{ID: metrics.InstanceID{Operator: "q1-map", Index: 0}, Pushed: 999},
	}}
	if got := pushedBy(iv, nexmark.SrcBids); got != 1000 {
		t.Errorf("pushed = %d, want 1000", got)
	}
}

// lagPhase builds a phase that pushed limit records in span seconds.
func lagPhase(limit int64, span float64) *livePhase {
	p := &livePhase{name: "test", limit: limit, first: time.Unix(0, 0)}
	p.end = p.first.Add(time.Duration(span * float64(time.Second)))
	return p
}

func TestAddLag(t *testing.T) {
	var tally lagTally
	// 100k due at 200k rec/s over 0.5 s: one job 1,000 late, one early.
	if got := lagPhase(99_000, 0.5).addLag(&tally, 200_000); got != 1_000 {
		t.Errorf("lag = %v, want 1000", got)
	}
	if got := lagPhase(100_500, 0.5).addLag(&tally, 200_000); got != 0 {
		t.Errorf("early source lag = %v, want 0", got)
	}
	if tally.due != 200_000 || tally.late != 1_000 {
		t.Errorf("tally %+v, want 200000 due, 1000 late", tally)
	}
}

func TestLagTallyRejectsARunBehindSchedule(t *testing.T) {
	// 300 records due; 15 late is within an 8% bound, 30 is not.
	res := newResults()
	lagTally{due: 300, late: 15}.check(res, 0.08)
	if len(res.problems) != 0 {
		t.Errorf("a run 5%% behind failed: %v", res.problems)
	}
	res = newResults()
	lagTally{due: 300, late: 30}.check(res, 0.08)
	if len(res.problems) == 0 {
		t.Error("a run 10% behind passed the lag check")
	}
}

func TestQ5OwedOnHandBuiltState(t *testing.T) {
	// k = 4 panes per window, watermark at 10: windows ending 10..13
	// have not fired. Pane 8 (3 bids) is still owed by windows 10 and
	// 11; pane 10 (5 bids) by 10..13; pane 12 (2 bids) by 12..15.
	ws := &streamrt.WindowState{NextFire: 10, Panes: map[int64]any{8: 3, 10: 5, 12: 2}}
	if got, want := q5Owed(ws, 4), 3*2+5*4+2*4; got != want {
		t.Errorf("owed = %d, want %d", got, want)
	}
	// A pane every open window has already reported owes nothing.
	ws = &streamrt.WindowState{NextFire: 20, Panes: map[int64]any{12: 7}}
	if got := q5Owed(ws, 4); got != 0 {
		t.Errorf("owed = %d, want 0", got)
	}
}

// q5States hand-builds a final q5 state: auction "1" received 10 bids
// with k = 4; 4 of them in pane 0 fired in all 4 windows (16 counts),
// the 6 in pane 3 fired in window 3 only and are owed 3 more each.
func q5States() map[string]map[string]any {
	return map[string]map[string]any{
		"q5-sink":   {"1": nexmark.Q5Agg{Windows: 4, Bids: 4*4 + 6}},
		"q5-window": {"1": &streamrt.WindowState{NextFire: 4, Panes: map[int64]any{3: 6}}},
	}
}

func TestCheckQ5(t *testing.T) {
	want := map[string]int{"1": 10}
	if err := checkQ5(q5States(), want, 4); err != nil {
		t.Fatalf("conserved state rejected: %v", err)
	}
	lost := q5States()
	lost["q5-window"]["1"].(*streamrt.WindowState).Panes[3] = 5
	if checkQ5(lost, want, 4) == nil {
		t.Error("a lost bid passed the conservation check")
	}
	twice := q5States()
	twice["q5-sink"]["1"] = nexmark.Q5Agg{Windows: 5, Bids: 4*4 + 6 + 6}
	if checkQ5(twice, want, 4) == nil {
		t.Error("a window fired twice passed the conservation check")
	}
}

func TestCheckQ1(t *testing.T) {
	cfg := nexmark.LiveQueryConfig{Seed: 3}
	want := nexmark.LiveExpectedQ1(cfg, 500)
	states := map[string]map[string]any{"q1-sink": {}}
	for k, v := range want {
		v := v
		states["q1-sink"][k] = &v
	}
	if err := checkQ1(states, want); err != nil {
		t.Fatalf("exact state rejected: %v", err)
	}
	for k := range want {
		states["q1-sink"][k].(*nexmark.Q1Agg).EuroSum++
		break
	}
	if checkQ1(states, want) == nil {
		t.Error("a perturbed euro sum passed the q1 check")
	}
}

func TestCheckTable4(t *testing.T) {
	want := []table4Cell{{"q1", 8, []int{12}}, {"q5", 8, []int{16, 18}}}
	got := []table4Cell{{"q5", 8, []int{16, 18}}, {"q1", 8, []int{12}}}
	if err := checkTable4(got, want); err != nil {
		t.Fatalf("matching cells rejected: %v", err)
	}
	if checkTable4([]table4Cell{{"q5", 8, []int{16, 18}}, {"q1", 8, []int{13}}}, want) == nil {
		t.Error("a different step passed the table check")
	}
	long := []table4Cell{{"q1", 8, []int{9, 10, 11, 12}}}
	if checkTable4(long, long) == nil {
		t.Error("four steps passed the three-step bound")
	}
}

// statusTransport answers every request with the status its endpoint
// maps to, 200 by default.
type statusTransport map[string]int

func (s statusTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	code := s[endpoint(r)]
	if code == 0 {
		code = http.StatusOK
	}
	return &http.Response{StatusCode: code, Body: io.NopCloser(strings.NewReader("{}")), Request: r}, nil
}

func TestCallTimerDerivesCyclesFromCallOrder(t *testing.T) {
	// One job: two intervals with a decision between them, a third
	// whose report the service answers 409 after the loop ended.
	calls := []struct{ method, path string }{
		{"POST", "/jobs"},
		{"POST", "/jobs/j/metrics"}, {"GET", "/jobs/j/action"},
		{"POST", "/jobs/j/acked"}, {"POST", "/jobs/j/metrics"}, {"GET", "/jobs/j/action"},
		{"POST", "/jobs/j/metrics"},
		{"GET", "/jobs/j/trace"}, {"DELETE", "/jobs/j"},
	}
	run := func(codes statusTransport) *callTimer {
		c := newCallTimer(codes, nil)
		for _, call := range calls {
			r, _ := http.NewRequest(call.method, "http://ds2d"+call.path, nil)
			if _, err := c.RoundTrip(r); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	c := run(statusTransport{"report": http.StatusConflict})
	if len(c.cycles) != 3 || len(c.engine) != 3 {
		t.Errorf("%d cycles, %d engine gaps, want 3 and 3", len(c.cycles), len(c.engine))
	}
	if c.attempted != int64(len(calls)) || c.failed != 0 || c.reportTries != 3 || c.registered.IsZero() {
		t.Errorf("attempted %d failed %d reports %d registered %v, want %d, 0, 3, set",
			c.attempted, c.failed, c.reportTries, c.registered, len(calls))
	}
	c = run(statusTransport{"report": http.StatusTooManyRequests, "ack": http.StatusInternalServerError})
	if c.failed != 4 || c.refused != 3 {
		t.Errorf("failed %d refused %d, want 4 (three 429 reports, one failed ack) and 3", c.failed, c.refused)
	}
}

func TestToReferenceScalesTimesAndRates(t *testing.T) {
	res := newResults()
	for name, v := range map[string]float64{"setup_s": 2, "throughput_rps": 100, "cpu_ns_per_rec": 10, "latency_p50_ms": 4, "latency_tail_ms": 8, "mem_peak_mb": 16} {
		res.set(name, v)
	}
	// A host twice as slow as the reference: times of work halve,
	// rates double, set-up and memory stay.
	toReference(res, 2)
	want := map[string]float64{"setup_s": 2, "throughput_rps": 200, "cpu_ns_per_rec": 5, "latency_p50_ms": 2, "latency_tail_ms": 4, "mem_peak_mb": 16}
	for name, w := range want {
		if got := res.vals[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if len(hostExp) != len(endToEnd)-2 {
		t.Errorf("hostExp covers %d metrics, want every end-to-end metric but setup_s and mem_peak_mb", len(hostExp))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		// Two children overlapping on [30, 40) cover 20+30-10 = 40.
		{ID: 2, Parent: 1, Name: "call", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "call", Start: 30, End: 60},
		// A grandchild only reduces its own parent.
		{ID: 4, Parent: 3, Name: "inner", Start: 35, End: 45},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"phase": 100 - 40 - 10, "call": 20 + 30 - 10, "inner": 10, "late": 30}
	for n, w := range want {
		if got[n] != w {
			t.Errorf("self(%s) = %d, want %d", n, got[n], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", 0, func(uint64) { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Error("nil tracer must run the call and keep no spans")
	}
}

// TestMetricsMatchBenchmarkJSON holds the reported metric lists and
// BENCHMARK.json together.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "q1-steady,q5-rescale,q1-dist,ds2d-table4"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("workload %s has no runner", n)
		}
	}
}

func TestEmitRequiresEveryEndToEndMetric(t *testing.T) {
	res := newResults()
	res.op(1, nil)
	for _, d := range endToEnd[1:] {
		res.set(d.Name, 1)
	}
	var sb strings.Builder
	if err := res.emit(&sb, endToEnd, true); err == nil {
		t.Error("a missing end-to-end metric was emitted")
	}
	res.set(endToEnd[0].Name, 2)
	sb.Reset()
	if err := res.emit(&sb, endToEnd, true); err != nil {
		t.Fatal(err)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(sb.String()), &line); err != nil || !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Errorf("emitted %q", sb.String())
	}
}
