package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/engine"
	"ds2/internal/experiments"
	"ds2/internal/nexmark"
	"ds2/internal/service"
)

// The convergenceRun settings of the Table 4 experiment: 30 s policy
// intervals of simulated Flink, warm-up 1, activation 1, max
// aggregation, target ratio 1, decisions capped at 36 instances,
// redeployments riding through the next interval (no settle), and the
// five-quiet-intervals stop rule.
const (
	t4Interval    = 30
	t4MaxInterval = 40
	t4Stable      = 5
	t4MaxPar      = 36
	// t4Clients is how many clients drive jobs through the service: a closed
	// loop, each client waiting for every reply.
	t4Clients = 2
	// t4PollWait bounds each action long-poll.
	t4PollWait = 10 * time.Second
)

// table4Sim builds one cell's simulator, exactly as the Table 4
// experiment does.
func table4Sim(query string, initial int) (*nexmark.Workload, *engine.Engine, dataflow.Parallelism, error) {
	w, err := nexmark.Query(query, nexmark.SystemFlink)
	if err != nil {
		return nil, nil, nil, err
	}
	par := w.InitialParallelism(initial)
	e, err := engine.New(w.Graph, w.Specs, w.Sources, par, engine.Config{
		Mode:          engine.ModeFlink,
		Tick:          0.05,
		QueueCapacity: 20_000,
		RedeployDelay: 10,
	})
	return w, e, par, err
}

// table4Spec registers one cell with the service.
func table4Spec(w *nexmark.Workload, query string, initial int, par dataflow.Parallelism) service.JobSpec {
	spec := service.JobSpec{
		Name:            fmt.Sprintf("%s/%d", query, initial),
		Initial:         par,
		IntervalSec:     t4Interval,
		MaxIntervals:    t4MaxInterval,
		StableIntervals: t4Stable,
		MaxParallelism:  t4MaxPar,
		Manager: &service.ManagerConfig{
			WarmupIntervals:     1,
			ActivationIntervals: 1,
			Aggregation:         "max",
			TargetRateRatio:     1.0,
		},
	}
	g := w.Graph
	for i := 0; i < g.NumOperators(); i++ {
		op := g.Operator(i)
		spec.Operators = append(spec.Operators, service.JobOperator{Name: op.Name, NonScalable: !op.Scalable})
		for _, d := range g.Downstream(i) {
			spec.Edges = append(spec.Edges, [2]string{op.Name, g.Operator(d).Name})
		}
	}
	return spec
}

// callTimer is one client's http.RoundTripper. It times each service
// call by endpoint, counts attempted and failed calls, and derives the
// control cycles and the engine time from the order of one job's calls.
// Each client drives one SimulatedJob at a time, so its calls arrive in
// the job's order: register, then per interval ack (if a redeployment
// completed), report and poll, and at the end trace and deregister.
type callTimer struct {
	next   http.RoundTripper
	tr     *tracer
	parent uint64 // span of the cell being driven
	byOp   map[string][]time.Duration
	// attempted counts every call, failed those the client takes as
	// errors; reportTries counts reports, refused the 429 answers.
	attempted, failed, reportTries, refused int64
	// cycles are the control intervals as the job sees them: from its
	// first call after the engine ran (ack or report) to the poll's
	// reply, or to the report's reply when the service ended the loop.
	cycles []time.Duration
	// engine is the job's time between a reply (register or poll) and
	// its next call: running the interval and applying any rescale.
	engine []time.Duration
	// registered is when the first registration answered.
	registered time.Time
	lastOp     string
	lastEnd    time.Time
	cycleStart time.Time
}

func newCallTimer(next http.RoundTripper, tr *tracer) *callTimer {
	return &callTimer{next: next, tr: tr, byOp: make(map[string][]time.Duration)}
}

// endpoint names a request by the service operation it performs.
func endpoint(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/jobs":
		return "register"
	case r.Method == http.MethodDelete:
		return "deregister"
	case strings.HasSuffix(p, "/metrics"):
		return "report"
	case strings.HasSuffix(p, "/action"):
		return "poll"
	case strings.HasSuffix(p, "/acked"):
		return "ack"
	case strings.HasSuffix(p, "/trace"):
		return "trace"
	default:
		return "other"
	}
}

func (c *callTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	op := endpoint(r)
	t0 := time.Now()
	if (op == "ack" || op == "report") && (c.lastOp == "register" || c.lastOp == "poll") {
		c.tr.record("engine.interval", c.parent, c.lastEnd, t0)
		c.engine = append(c.engine, t0.Sub(c.lastEnd))
		c.cycleStart = t0
	}
	s := c.tr.begin("service."+op, c.parent)
	resp, err := c.next.RoundTrip(r)
	c.tr.end(s)
	t1 := time.Now()
	c.byOp[op] = append(c.byOp[op], t1.Sub(t0))
	c.attempted++
	// A report that arrives after the job's loop has ended is answered
	// 409, which the client takes as the job's natural end.
	if err != nil || resp.StatusCode/100 != 2 && !(op == "report" && resp.StatusCode == http.StatusConflict) {
		c.failed++
	}
	switch op {
	case "register":
		if c.registered.IsZero() {
			c.registered = t1
		}
	case "report":
		c.reportTries++
		if err == nil && resp.StatusCode == http.StatusTooManyRequests {
			c.refused++
		}
	case "poll":
		c.cycles = append(c.cycles, t1.Sub(c.cycleStart))
	case "trace":
		if c.lastOp == "report" { // the report's reply ended the loop
			c.cycles = append(c.cycles, c.lastEnd.Sub(c.cycleStart))
		}
	}
	c.lastOp, c.lastEnd = op, t1
	return resp, err
}

// t4Server is one ds2d server on a loopback listener.
type t4Server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startT4Server() (*t4Server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &t4Server{srv: &http.Server{Handler: service.NewServer(service.ServerConfig{})}, url: "http://" + lis.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(lis) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// client returns a service client whose calls go through rt.
func (s *t4Server) client(rt http.RoundTripper) *service.Client {
	return service.NewClient(s.url, &http.Client{Transport: rt, Timeout: time.Minute})
}

// close stops the server and waits for its serve loop to exit.
func (s *t4Server) close() {
	s.srv.Close()
	<-s.done
}

// runCell drives one Table 4 cell through the service as a
// service.SimulatedJob without settling, exactly as the Table 4
// simulator jobs run, and returns the decisions the service applied.
func runCell(c *service.Client, query string, initial int) (table4Cell, error) {
	w, e, par, err := table4Sim(query, initial)
	if err != nil {
		return table4Cell{}, err
	}
	job := service.NewSimulatedJob(c, e, table4Spec(w, query, initial, par), false)
	job.PollWait = t4PollWait
	tr, err := job.Run()
	if err != nil {
		return table4Cell{}, fmt.Errorf("%s/%d: %w", query, initial, err)
	}
	cell := table4Cell{Query: query, Initial: initial}
	for _, iv := range tr.Intervals {
		if iv.Applied != nil {
			cell.Steps = append(cell.Steps, iv.Applied[w.MainOperator])
		}
	}
	if _, err := c.Deregister(job.ID); err != nil {
		return table4Cell{}, err
	}
	return cell, nil
}

// drive runs every cell, in order, over t4Clients closed-loop clients,
// each with its own callTimer around base. It returns the cells' steps
// and the timers.
func drive(env *runEnv, s *t4Server, base http.RoundTripper, order []table4Cell) ([]table4Cell, []*callTimer, error) {
	next := make(chan table4Cell)
	timers := make([]*callTimer, t4Clients)
	cells := make([][]table4Cell, t4Clients)
	errs := make([]error, t4Clients)
	var wg sync.WaitGroup
	for i := range timers {
		timers[i] = newCallTimer(base, env.tr)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := s.client(timers[i])
			for c := range next {
				if errs[i] != nil {
					continue
				}
				sp := env.tr.begin("table4.cell", 0)
				timers[i].parent = sp.id
				got, err := runCell(client, c.Query, c.Initial)
				env.tr.end(sp)
				errs[i] = err
				cells[i] = append(cells[i], got)
			}
		}(i)
	}
	for _, c := range order {
		next <- c
	}
	close(next)
	wg.Wait()
	var all []table4Cell
	for _, cs := range cells {
		all = append(all, cs...)
	}
	return all, timers, errors.Join(errs...)
}

// referenceTable is the in-process Table 4, the oracle the service
// drive must match.
func referenceTable(env *runEnv) ([]table4Cell, error) {
	var ref *experiments.ConvergenceTable
	var err error
	env.tr.do("experiments.RunConvergenceTable", 0, func(uint64) { ref, err = experiments.RunConvergenceTable() })
	if err != nil {
		return nil, err
	}
	out := make([]table4Cell, len(ref.Cells))
	for i, c := range ref.Cells {
		out[i] = table4Cell{Query: c.Query, Initial: c.Initial, Steps: c.Steps}
	}
	return out, nil
}

// timedAutoscaler times each decision of the wrapped autoscaler.
type timedAutoscaler struct {
	inner controlloop.Autoscaler
	times *[]time.Duration
}

func (t timedAutoscaler) Observe(o controlloop.Observation) (*core.Action, error) {
	t0 := time.Now()
	a, err := t.inner.Observe(o)
	*t.times = append(*t.times, time.Since(t0))
	return a, err
}

// managerPass reruns the Table 4 cells in process, serially, timing
// the scaling manager's interval through a timing autoscaler (traced
// runs). Its steps must match the reference too.
func managerPass(env *runEnv, res *results, want []table4Cell) ([]time.Duration, error) {
	var times []time.Duration
	var got []table4Cell
	for _, c := range want {
		w, e, par, err := table4Sim(c.Query, c.Initial)
		if err != nil {
			return nil, err
		}
		pol, err := core.NewPolicy(w.Graph, core.PolicyConfig{MaxParallelism: t4MaxPar})
		if err != nil {
			return nil, err
		}
		mgr, err := core.NewManager(pol, par, core.ManagerConfig{
			WarmupIntervals: 1, ActivationIntervals: 1, Aggregation: core.AggMax, TargetRateRatio: 1.0,
		})
		if err != nil {
			return nil, err
		}
		loop, err := controlloop.New(controlloop.NewEngineRuntime(e, false),
			timedAutoscaler{inner: controlloop.DS2Autoscaler(mgr), times: &times},
			controlloop.Config{Interval: t4Interval, MaxIntervals: t4MaxInterval, StableIntervals: t4Stable})
		if err != nil {
			return nil, err
		}
		var tr controlloop.Trace
		env.tr.do("controlloop.Run", 0, func(uint64) { tr, err = loop.Run() })
		if err != nil {
			return nil, err
		}
		cell := table4Cell{Query: c.Query, Initial: c.Initial}
		for _, iv := range tr.Intervals {
			if iv.Applied != nil {
				cell.Steps = append(cell.Steps, iv.Applied[w.MainOperator])
			}
		}
		got = append(got, cell)
	}
	res.op(int64(len(want)), checkTable4(got, want))
	return times, nil
}

// runTable4 is the control plane: a ds2d server on HTTP loopback drives
// the 36 Table 4 cells to convergence as simulated jobs, closed loop
// over t4Clients clients. The service's ingest, poll and ack path, the
// simulator and the policy and manager do all the work; the live
// runtime does none. The seed orders the cells. Each round starts a
// fresh server and drives the whole table.
func runTable4(env *runEnv, res *results) error {
	want, err := referenceTable(env)
	if err != nil {
		return err
	}
	// The seed orders the cells, afresh each round, so a run averages
	// over orders rather than measuring one pairing of cells.
	rng := rand.New(rand.NewSource(env.seed))
	shuffled := func() []table4Cell {
		order := append([]table4Cell(nil), want...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order
	}

	base := http.DefaultTransport.(*http.Transport).Clone()
	defer base.CloseIdleConnections()

	// Set-up: a fresh server until its first job is registered.
	var setups []time.Duration
	first := shuffled()[0]
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := startT4Server()
		if err != nil {
			return err
		}
		w, _, par, err := table4Sim(first.Query, first.Initial)
		if err != nil {
			s.close()
			return err
		}
		c := s.client(base)
		id, err := c.Register(table4Spec(w, first.Query, first.Initial, par))
		res.op(1, err)
		if err != nil {
			s.close()
			return err
		}
		setups = append(setups, time.Since(t0))
		_, err = c.Deregister(id)
		res.op(1, err)
		s.close()
	}

	figs := figures{}
	var cycles, engineTimes []time.Duration
	var timers []*callTimer
	n := max(2, rounds(env)*2/3)
	for r := 0; r < n; r++ {
		env.probe.sample()
		order := shuffled()
		runtime.GC()
		t0 := time.Now()
		s, err := startT4Server()
		if err != nil {
			return err
		}
		var probe *allocProbe
		if env.tr != nil && r == 0 {
			probe = startAllocProbe()
		}
		cpu0 := cpuTime()
		cells, ts, err := drive(env, s, base, order)
		cpu := cpuTime() - cpu0
		span := time.Since(t0)
		s.close()
		var roundCycles int
		var registered time.Time
		for _, t := range ts {
			res.opCount(t.attempted, t.failed)
			roundCycles += len(t.cycles)
			cycles = append(cycles, t.cycles...)
			engineTimes = append(engineTimes, t.engine...)
			if !t.registered.IsZero() && (registered.IsZero() || t.registered.Before(registered)) {
				registered = t.registered
			}
		}
		timers = append(timers, ts...)
		if err != nil {
			return err
		}
		setups = append(setups, registered.Sub(t0))
		if probe != nil {
			probe.report(res, int64(roundCycles))
		}
		res.op(int64(len(want)), checkTable4(cells, want))
		figs.add("service.table4_s", span.Seconds())
		figs.add("throughput_rps", float64(roundCycles)/span.Seconds())
		figs.add("cpu_ns_per_rec", float64(cpu)/float64(roundCycles))
	}
	figs.report(env, res)
	lat, err := summarize(durationSamples(cycles), 0.99)
	if err != nil {
		return fmt.Errorf("table4 cycles: %w", err)
	}
	res.set("latency_p50_ms", lat.P50)
	res.set("latency_tail_ms", lat.Tail)
	env.logf("table4 cycles: p50 %.3f ms, p%.4g %.3f ms over %d cycles", lat.P50, lat.TailLevel*100, lat.Tail, lat.N)
	res.set("setup_s", medianDuration(setups)/1e3)
	res.set("engine.interval_ms", medianDuration(engineTimes))

	if env.tr != nil {
		var tries, refused int64
		byOp := map[string][]time.Duration{}
		for _, t := range timers {
			tries += t.reportTries
			refused += t.refused
			for op, ds := range t.byOp {
				byOp[op] = append(byOp[op], ds...)
			}
		}
		for _, op := range []string{"register", "report", "poll", "ack"} {
			res.set("service."+op+"_ms", medianDuration(byOp[op]))
		}
		if tries > 0 {
			res.set("service.retry_frac", float64(refused)/float64(tries))
		}
		times, err := managerPass(env, res, want)
		if err != nil {
			return err
		}
		res.set("core.manager_interval_us", medianDuration(times)*1e3)
	}
	return nil
}
