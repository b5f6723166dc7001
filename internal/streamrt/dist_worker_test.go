package streamrt

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/obs"
)

// distCountPipeline is src -> count with the codecs a distributed
// deployment needs: count keeps an int per key (IntStateCodec).
func distCountPipeline(t *testing.T, rate float64) *Pipeline {
	t.Helper()
	p, err := NewPipeline().
		AddSource("src", SourceSpec{
			Rate: func(float64) float64 { return rate },
			Next: func(seq int64) (string, any) { return "k", "v" },
		}).
		AddOperator("count", OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, _ any, _ Emit) any {
				c, _ := state.(int)
				return c + 1
			},
			Codec: StringCodec{},
			State: IntStateCodec{},
		}).
		AddEdge("src", "count").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// listenWorker starts a Worker on loopback serving p as "wc".
func listenWorker(t *testing.T, index int, p *Pipeline, reg *obs.Registry) string {
	t.Helper()
	w := NewWorker(index, map[string]*Pipeline{"wc": p}, reg)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return addr
}

// TestWorkerRejectsCorruptDeployState pins that keyed state from the
// coordinator cannot panic a worker: a deploy carrying a truncated
// IntStateCodec blob gets an error reply, and the same worker then
// accepts a valid deploy and hands the state back on drain.
func TestWorkerRejectsCorruptDeployState(t *testing.T) {
	p := distCountPipeline(t, 0)
	addr := listenWorker(t, 0, p, nil)
	r, err := dialRemote(0, addr, p, "wc", Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()

	par := dataflow.Parallelism{"src": 1, "count": 1}
	bad := deployReq{
		Workload:    "wc",
		Gen:         1,
		Workers:     1,
		Parallelism: par,
		Assign:      PlanPlacement(par, 1),
		States:      map[string]map[string][]byte{"count": {"k": {0x80}}}, // varint cut mid-byte
		Config:      r.cfg,
	}
	err = r.rpc(ctrlDeploy, bad, nil)
	if err == nil || !strings.Contains(err.Error(), "decoding operator state") {
		t.Fatalf("corrupt deploy: error = %v, want a state decoding error", err)
	}

	g := &generation{
		gen: 2, workers: 1, epoch: time.Now(), par: par, assign: PlanPlacement(par, 1),
		states: map[string]map[string]any{"count": {"k": 5}},
	}
	if _, err := r.deploy(g, traceCtx{}); err != nil {
		t.Fatalf("valid deploy after a corrupt one: %v", err)
	}
	if err := r.start(2); err != nil {
		t.Fatal(err)
	}
	d, err := r.drain(traceCtx{})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]any{"k": 5}; !reflect.DeepEqual(d.states["count"], want) {
		t.Fatalf("drained state = %v, want %v", d.states["count"], want)
	}
}

// TestRescaleCounterLivesOnCoordinator pins that only the coordinator
// exports streamrt_rescales_total: after one cross-process rescale its
// registry reads 1, and no worker registry carries the series (a
// worker never rescales; federation would re-export a constant 0).
func TestRescaleCounterLivesOnCoordinator(t *testing.T) {
	p := distCountPipeline(t, 2000)
	wregs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	addrs := []string{listenWorker(t, 0, p, wregs[0]), listenWorker(t, 1, p, wregs[1])}
	reg := obs.NewRegistry()
	c, err := NewCluster(p, "wc", dataflow.Parallelism{"src": 1, "count": 1}, addrs, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer c.Stop()
	time.Sleep(50 * time.Millisecond)
	if err := c.Rescale(dataflow.Parallelism{"src": 1, "count": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Collect(); err != nil {
		t.Fatal(err)
	}

	scrape := func(reg *obs.Registry) obs.Scrape {
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		sc, err := obs.ParseText(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	if got := scrape(reg).Get("streamrt_rescales_total"); len(got) != 1 || got[0].Value != 1 {
		t.Errorf("coordinator rescales_total = %v, want one series reading 1", got)
	}
	for i, wr := range wregs {
		sc := scrape(wr)
		if got := sc.Get("streamrt_rescales_total"); len(got) != 0 {
			t.Errorf("worker %d exports rescales_total %v, want no series", i, got)
		}
		if got := sc.Get("streamrt_operator_instances"); len(got) == 0 {
			t.Errorf("worker %d exports no runtime telemetry", i)
		}
	}
}
