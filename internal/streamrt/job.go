package streamrt

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/metrics"
	"ds2/internal/obs"
)

// ErrStopped reports that the job was stopped; Runtime translates it
// to controlloop.ErrStopped so hosts see a clean shutdown.
var ErrStopped = errors.New("streamrt: job stopped")

// Config tunes a running Job.
type Config struct {
	// ChannelCapacity bounds every instance's input queue, counted in
	// batches (the exchange moves batches of up to BatchSize records).
	// Smaller queues mean tighter backpressure and faster drains on
	// rescale; values < 1 default to 16.
	ChannelCapacity int
	// BatchSize caps how many records one exchange batch carries. A
	// sender flushes a partial batch when it reaches this size, when
	// FlushInterval has passed, when it goes idle or sleeps for pacing,
	// and at exit. Values < 1 default to 256.
	BatchSize int
	// FlushInterval bounds how long a record may sit in a partial batch
	// (and how long instrumentation batches its clock splits), so
	// low-rate jobs keep per-record latency. Values <= 0 default to
	// 2ms.
	FlushInterval time.Duration
	// PartitionWeights optionally skews the deployment-time routing
	// table of a keyed operator (by name): instance i of operator op
	// receives a share of the known key universe proportional to
	// PartitionWeights[op][i]. Entries whose length does not match the
	// operator's parallelism, or with non-positive weights, are ignored
	// (equal shares). Keys outside the known universe fall back to
	// rendezvous hashing regardless.
	PartitionWeights map[string][]float64
	// BackpressureThreshold is the fraction of a window some upstream
	// instance must spend blocked pushing into an operator before that
	// operator is flagged backpressured (the Dhalion signal,
	// attributed to the congested receiver as on the simulator).
	// Values <= 0 default to 0.1.
	BackpressureThreshold float64
	// JitterTolerance is passed to metrics.WindowFromDurations; <= 0
	// selects metrics.DefaultJitterTolerance.
	JitterTolerance float64
	// LatencySampleEvery makes sinks record every Nth record's
	// source-to-sink latency (weight N). Values < 1 default to 1.
	LatencySampleEvery int
	// SourceSeqBlock is the block size of the distributed source
	// sequence striping: each worker process of a distributed job owns
	// every SourceSeqBlock-long run of global sequence numbers whose
	// block index is congruent to the worker index, so the workers
	// jointly emit exactly the single-process sequence set with no
	// cross-process coordination. Irrelevant to single-process jobs.
	// Values < 1 default to 8192.
	SourceSeqBlock int64
	// Metrics optionally exports the job's runtime telemetry — the §3
	// per-operator time splits, true/observed rates, batching and
	// backpressure counters, and a sampled record-latency histogram —
	// into an obs.Registry (typically shared with a /metrics exporter).
	// Nil disables telemetry; the hot path then pays one nil check per
	// batch and nothing per record.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.ChannelCapacity < 1 {
		c.ChannelCapacity = 16
	}
	if c.BatchSize < 1 {
		c.BatchSize = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.BackpressureThreshold <= 0 {
		c.BackpressureThreshold = 0.1
	}
	if c.LatencySampleEvery < 1 {
		c.LatencySampleEvery = 1
	}
	if c.SourceSeqBlock < 1 {
		c.SourceSeqBlock = 8192
	}
	return c
}

// Job is one deployed, running pipeline and the coordinator that
// steers it. It drives a list of worker handles (see handle): one
// in-process handle for NewJob, one remote handle per worker process
// for NewCluster. Every engine operation — cut a window, rescale,
// savepoint, stop, wait — is written once here against that seam, so
// intervals, routing tables, traces and savepoints are identical
// whether the pipeline runs in one process or many. A Job runs until
// Stop (or until every bounded source is exhausted).
type Job struct {
	pipe *Pipeline
	// workload names the pipeline on the workers ("" in-process);
	// addrs are their control addresses, nil for an in-process job.
	workload string
	addrs    []string
	cfg      Config
	epoch    time.Time // job time zero; job time = time.Since(epoch)
	// obs holds the pre-resolved metric handles when Config.Metrics is
	// set; nil disables all telemetry. An in-process handle shares it.
	obs     *jobObs
	handles []handle

	mu         sync.Mutex
	cur        dataflow.Parallelism
	gen        uint32
	winStart   float64 // job time of the last window cut
	rescales   int
	savepoints int
	stopped    bool
	final      map[string]map[string]any

	linkMu   sync.Mutex
	linkSeen map[string]*linkMirror
}

// Cluster is a Job over worker processes. The name stays for callers
// that spell out the distributed case; the engine is the same.
type Cluster = Job

// fleet is the worker set of a distributed job: the workload name the
// workers serve the pipeline under and their control addresses.
type fleet struct {
	workload string
	addrs    []string
}

// NewJob validates the initial parallelism, deploys the pipeline in
// this process and starts every instance.
func NewJob(p *Pipeline, initial dataflow.Parallelism, cfg Config) (*Job, error) {
	return newJob(p, initial, cfg, nil, nil, "")
}

// NewCluster deploys pipe over the workers at addrs (each running a
// Worker serving the named workload) and starts it.
func NewCluster(pipe *Pipeline, workload string, initial dataflow.Parallelism, addrs []string, cfg Config) (*Cluster, error) {
	return newJob(pipe, initial, cfg, &fleet{workload, addrs}, nil, "")
}

// newJob is the one construction path: validate, load the savepoint
// when store is set, open the worker handles (in-process when fl is
// nil) and deploy the first generation.
func newJob(p *Pipeline, initial dataflow.Parallelism, cfg Config, fl *fleet, store CheckpointStore, name string) (*Job, error) {
	if p == nil {
		return nil, errors.New("streamrt: nil pipeline")
	}
	if err := initial.Validate(p.graph); err != nil {
		return nil, err
	}
	j := &Job{
		pipe:     p,
		cfg:      cfg.withDefaults(),
		epoch:    time.Now(),
		cur:      initial.Clone(),
		linkSeen: make(map[string]*linkMirror),
	}
	if fl != nil {
		if err := validateDistributed(p, initial, len(fl.addrs)); err != nil {
			return nil, err
		}
		j.workload, j.addrs = fl.workload, fl.addrs
	}
	var states map[string]map[string]any
	var seqs map[string][]int64
	if store != nil {
		sp, err := loadSavepoint(p, initial, fl, store, name)
		if err != nil {
			return nil, err
		}
		if states, err = decodeStates(p, sp.States); err != nil {
			return nil, err
		}
		seqs = sp.Seqs
		j.cfg.SourceSeqBlock = sp.SeqBlock
		j.epoch = time.Now().Add(-time.Duration(sp.Elapsed * float64(time.Second)))
		j.winStart = sp.Elapsed
	}
	if reg := j.cfg.Metrics; reg != nil {
		j.obs = newJobObs(reg, p)
		reg.CounterFunc("streamrt_rescales_total", "Redeployments performed by the job.",
			func() float64 { return float64(j.Rescales()) })
	}
	if fl == nil {
		j.handles = []handle{newLocalHandle(p, j.cfg, j.obs, nil, newSeqs(p))}
	}
	for i, addr := range j.addrs {
		h, err := dialRemote(i, addr, p, j.workload, j.cfg)
		if err != nil {
			j.Close()
			return nil, err
		}
		j.handles = append(j.handles, h)
	}
	j.mu.Lock()
	err := j.deployLocked(initial, states, seqs, nil)
	j.mu.Unlock()
	if err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// Now returns the current job time in seconds (worker epochs are
// aligned to it at every deploy).
func (j *Job) Now() float64 { return time.Since(j.epoch).Seconds() }

// WindowStart returns the job time the open observation window
// started at.
func (j *Job) WindowStart() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.winStart
}

// Parallelism returns the deployed configuration.
func (j *Job) Parallelism() dataflow.Parallelism {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cur.Clone()
}

// Rescales returns how many redeployments the job has performed.
func (j *Job) Rescales() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rescales
}

// Stopped reports whether the job was stopped.
func (j *Job) Stopped() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stopped
}

// each runs f for every worker handle — concurrently when there are
// several — and joins the errors.
func (j *Job) each(f func(i int, h handle) error) error {
	if len(j.handles) == 1 {
		return f(0, j.handles[0])
	}
	errs := make([]error, len(j.handles))
	var wg sync.WaitGroup
	for i, h := range j.handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, h)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// deployLocked pushes one new generation: placement, routing tables
// built over the known key universe (identical on every worker),
// per-worker state slices, then the two-phase deploy/start barrier —
// every worker installs its share before any source emits. seqs, when
// non-nil, carries per-rank source counters to restore (the
// from-savepoint path); each hosting worker receives its rank's
// counter. tr, when non-nil, times the router_rebuild/transfer/restart
// phases with per-worker child spans. Callers hold j.mu (or own j
// exclusively).
func (j *Job) deployLocked(par dataflow.Parallelism, states map[string]map[string]any, seqs map[string][]int64, tr *rescaleTrace) error {
	j.gen++
	n := len(j.handles)
	gens := make([]generation, n)
	tr.phase(phaseRouterRebuild, func(uint64) {
		assign := PlanPlacement(par, n)
		tables := make(map[string]map[string]int)
		routers := make(map[string]*router)
		for name, spec := range j.pipe.ops {
			if spec.Keyed {
				r := buildRouter(states[name], par[name], j.cfg.PartitionWeights[name])
				routers[name] = r
				if r.table != nil {
					tables[name] = r.table
				}
			}
		}
		for w := range gens {
			gens[w] = generation{
				gen: j.gen, worker: w, workers: n, peers: j.addrs, epoch: j.epoch,
				par: par, assign: assign, tables: tables,
			}
		}
		if n == 1 {
			gens[0].states = states
		} else {
			for op, kv := range states {
				for k, v := range kv {
					g := &gens[assign[op][routers[op].owner(k)]]
					if g.states == nil {
						g.states = make(map[string]map[string]any)
					}
					if g.states[op] == nil {
						g.states[op] = make(map[string]any)
					}
					g.states[op][k] = v
				}
			}
		}
		// Rank r of a source maps to the r'th sorted worker hosting it.
		for src, counters := range seqs {
			for rank, w := range hostingWorkers(assign[src]) {
				if rank >= len(counters) {
					break // shape was validated at restore; belt and braces
				}
				if gens[w].seqs == nil {
					gens[w].seqs = make(map[string]int64)
				}
				gens[w].seqs[src] = counters[rank]
			}
		}
	})
	var err error
	tr.phase(phaseTransfer, func(parent uint64) {
		err = j.each(func(w int, h handle) error {
			s0 := tr.now()
			spans, err := h.deploy(&gens[w], tr.ctx(parent))
			if err != nil {
				return err
			}
			j.child(tr, "transfer", w, parent, s0, spans)
			return nil
		})
	})
	if err != nil {
		return err
	}
	tr.phase(phaseRestart, func(parent uint64) {
		err = j.each(func(w int, h handle) error {
			s0 := tr.now()
			if err := h.start(j.gen); err != nil {
				return err
			}
			j.child(tr, "restart", w, parent, s0, nil)
			return nil
		})
	})
	if err != nil {
		return err
	}
	j.cur = par.Clone()
	return nil
}

// drainLocked drains every worker — all of them, so the cross-process
// close cascade completes everywhere — with per-worker child spans
// under parent. Callers hold j.mu.
func (j *Job) drainLocked(tr *rescaleTrace, parent uint64) ([]drained, error) {
	out := make([]drained, len(j.handles))
	err := j.each(func(w int, h handle) error {
		s0 := tr.now()
		d, err := h.drain(tr.ctx(parent))
		if err != nil {
			return err
		}
		out[w] = d
		j.child(tr, "drain", w, parent, s0, d.spans)
		return nil
	})
	return out, err
}

// child records worker w's span under a phase that fanned out to the
// workers. A lone worker's span would only repeat the phase, so it is
// kept only when that worker reported spans of its own.
func (j *Job) child(tr *rescaleTrace, phase string, w int, parent uint64, start int64, spans []wireSpan) {
	if len(j.handles) > 1 || len(spans) > 0 {
		tr.child(phase, w, parent, start, tr.now(), spans)
	}
}

// mergeStates merges per-worker state snapshots (disjoint key sets —
// each key's state lives with its owning instance).
func mergeStates(ds []drained) map[string]map[string]any {
	if len(ds) == 1 {
		return ds[0].states
	}
	merged := make(map[string]map[string]any)
	for _, d := range ds {
		for op, kv := range d.states {
			if merged[op] == nil {
				merged[op] = make(map[string]any)
			}
			for k, v := range kv {
				merged[op][k] = v
			}
		}
	}
	return merged
}

// cycleLocked is the paper's savepoint-and-restore cycle that Rescale
// and Savepoint share: drain, snapshot the merged keyed state, run
// persist (Savepoint only), redeploy at par. The pause pollutes the
// open observation window, so the window restarts at the new
// deployment (settle semantics — the next interval starts clean, as
// the Flink integration's §4.1 metrics reset). A persist error is
// returned after the job is back up. Callers hold j.mu.
func (j *Job) cycleLocked(par dataflow.Parallelism, tr *rescaleTrace, persist func([]drained, map[string]map[string]any) error) error {
	var ds []drained
	var err error
	tr.phase(phaseDrain, func(parent uint64) { ds, err = j.drainLocked(tr, parent) })
	if err != nil {
		return err
	}
	var states map[string]map[string]any
	tr.phase(phaseSnapshot, func(uint64) { states = mergeStates(ds) })
	var perr error
	if persist != nil {
		perr = persist(ds, states)
	}
	if err := j.deployLocked(par, states, nil, tr); err != nil {
		return err
	}
	j.winStart = j.Now()
	if tr != nil {
		go j.resolveFirstRecord(tr, tr.now(), j.gen)
	}
	return perr
}

// Rescale redeploys the job at a new parallelism: drain everywhere
// (the close cascade flushes every in-flight record), snapshot and
// merge keyed state, repartition it under the new routing tables, and
// push the next generation.
func (j *Job) Rescale(newP dataflow.Parallelism) error {
	if err := newP.Validate(j.pipe.graph); err != nil {
		return err
	}
	if j.addrs != nil {
		if err := validateDistributed(j.pipe, newP, len(j.handles)); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return ErrStopped
	}
	if err := j.cycleLocked(newP, j.obs.beginRescaleTrace(j.rescales+1), nil); err != nil {
		return err
	}
	j.rescales++
	return nil
}

// resolveFirstRecord completes a redeploy's trace with the first record
// generation gen processed anywhere. Once any worker has noted a time,
// workers still pending can only note later ones, so the minimum over
// the first round with a hit is the job-wide first record. A lone
// in-process handle is waited on; remote handles are polled. Gives up
// (leaving the trace incomplete) after firstRecordWait, on a control
// error, or when gen is obsolete.
func (j *Job) resolveFirstRecord(tr *rescaleTrace, restartEnd int64, gen uint32) {
	deadline := time.Now().Add(firstRecordWait)
	for {
		var mu sync.Mutex
		best := int64(-1)
		var ready []<-chan struct{}
		err := j.each(func(_ int, h handle) error {
			at, ch, err := h.firstRecord(gen)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if at > 0 && (best < 0 || at < best) {
				best = at
			}
			if at == 0 {
				ready = append(ready, ch)
			}
			return nil
		})
		if err != nil {
			return
		}
		if best > 0 {
			tr.finish(restartEnd, best, true)
			return
		}
		if len(ready) == 1 && ready[0] != nil {
			select {
			case <-ready[0]:
			case <-time.After(time.Until(deadline)):
			}
		} else {
			time.Sleep(50 * time.Millisecond)
		}
		if !time.Now().Before(deadline) {
			break
		}
		// Checked only after a wait: the redeploy that started this
		// resolver holds j.mu until it returns, and blocking on the
		// lock here would add a wake-up to every redeploy.
		j.mu.Lock()
		stale := j.stopped || j.gen != gen
		j.mu.Unlock()
		if stale {
			return
		}
	}
	tr.finish(restartEnd, 0, false)
}

// RescaleTraces returns the retained rescale span timelines, oldest
// first — the payload behind the service's GET /jobs/{id}/rescales.
// Nil when telemetry is off (Config.Metrics unset).
func (j *Job) RescaleTraces() []obs.TraceView {
	if j.obs == nil {
		return nil
	}
	return j.obs.rescale.ring.Views()
}

// Stop drains the job and returns the final keyed state of every
// stateful operator (operator -> key -> state). It is idempotent. The
// control connections of a distributed job stay up until Close.
func (j *Job) Stop() map[string]map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return j.final
	}
	j.stopped = true
	if ds, err := j.drainLocked(nil, 0); err == nil {
		j.final = mergeStates(ds)
	}
	if j.final == nil {
		j.final = make(map[string]map[string]any)
	}
	for name, spec := range j.pipe.ops {
		if spec.Keyed && j.final[name] == nil {
			j.final[name] = make(map[string]any)
		}
	}
	return j.final
}

// Close releases the control connections of a distributed job; it does
// nothing for an in-process one. Call after Stop.
func (j *Job) Close() {
	for _, h := range j.handles {
		h.close()
	}
}

// Wait blocks until every instance has exited on its own — i.e. every
// bounded source hit its Limit and the pipeline drained on every
// worker — or the job was stopped. It does not stop the job; call Stop
// afterwards to collect final state. Rescales are transparent: a
// drained-for-rescale generation does not satisfy Wait, which moves on
// to the replacement.
func (j *Job) Wait() {
	for {
		j.mu.Lock()
		if j.stopped {
			j.mu.Unlock()
			return
		}
		gen := j.gen
		j.mu.Unlock()
		var mu sync.Mutex
		natural := true
		err := j.each(func(_ int, h handle) error {
			n, err := h.wait()
			if err != nil {
				return err
			}
			mu.Lock()
			natural = natural && n
			mu.Unlock()
			return nil
		})
		if err != nil || natural {
			return
		}
		// Not natural: a drain happened. A rescale holds j.mu until the
		// next generation is live, so by the time gen can be read again
		// it has moved; an unchanged gen means Stop.
		j.mu.Lock()
		same, stopped := j.gen == gen, j.stopped
		j.mu.Unlock()
		if stopped || same {
			return
		}
	}
}

// Interval is everything one observation window produced — the
// wall-clock analogue of the simulator's IntervalStats. Observation
// and Report convert it for the in-process Controller and the ds2d
// wire format respectively.
type Interval struct {
	Start, End           float64
	Windows              []metrics.WindowMetrics
	TargetRates          map[string]float64
	SourceObserved       map[string]float64
	Backpressured        []string
	BackpressureFraction map[string]float64
	Parallelism          dataflow.Parallelism
	Workers              int
	Latencies            []metrics.LatencySample
}

// wireAcc is one instance's taken accumulator in wire form: every
// worker handle returns these at collect time — a remote one ships
// them over its control connection — so Collect builds intervals with
// byte-identical logic however the job is placed (decision parity
// between local and distributed runs depends on it).
type wireAcc struct {
	Op            string                  `json:"op"`
	Idx           int                     `json:"idx"`
	IsSrc         bool                    `json:"is_src,omitempty"`
	DownOps       []string                `json:"down_ops,omitempty"`
	DurNanos      [5]int64                `json:"dur_nanos"` // deser, proc, ser, wait_in, wait_out
	Processed     int64                   `json:"processed"`
	Pushed        int64                   `json:"pushed"`
	DownWaitNanos []int64                 `json:"down_wait_nanos,omitempty"`
	Lats          []metrics.LatencySample `json:"lats,omitempty"`
}

// buildInterval turns taken accumulators into an Interval — Collect's
// build phase, and the worker-local gauge refresh. It needs no lock: it
// works on the taken snapshots and the immutable pipeline, plus the
// user's Rate function.
func buildInterval(pipe *Pipeline, cfg Config, accs []wireAcc, start, end float64, par dataflow.Parallelism) (Interval, error) {
	iv := Interval{
		Start:                start,
		End:                  end,
		TargetRates:          make(map[string]float64),
		SourceObserved:       make(map[string]float64),
		BackpressureFraction: make(map[string]float64),
		Parallelism:          par,
		Workers:              par.Total(),
	}
	span := end - start
	window := time.Duration(span * float64(time.Second))
	if len(accs) == 0 || window <= 0 {
		return iv, nil
	}
	// Backpressure is attributed to the congested *receiver* — the
	// operator whose input queue blocked its senders — matching the
	// simulator's input-queue semantics, so rule-based policies
	// (Dhalion's "most downstream backpressured operator") diagnose
	// the same bottleneck on both runtimes. Sources are never flagged
	// (nothing sends into them). The sender's blocked time still
	// appears as its own WaitingOutput window metric.
	maxBP := make(map[string]float64)
	for _, t := range accs {
		id := metrics.InstanceID{Operator: t.Op, Index: t.Idx}
		dur := metrics.Durations{
			Deserialization: time.Duration(t.DurNanos[0]),
			Processing:      time.Duration(t.DurNanos[1]),
			Serialization:   time.Duration(t.DurNanos[2]),
			WaitingInput:    time.Duration(t.DurNanos[3]),
			WaitingOutput:   time.Duration(t.DurNanos[4]),
		}
		w, err := metrics.WindowFromDurations(id, window, dur, t.Processed, t.Pushed, cfg.JitterTolerance)
		if err != nil {
			return Interval{}, fmt.Errorf("streamrt: collecting %s: %w", id, err)
		}
		iv.Windows = append(iv.Windows, w)
		if t.IsSrc {
			iv.SourceObserved[t.Op] += float64(t.Pushed) / span
		}
		for e, down := range t.DownOps {
			if e >= len(t.DownWaitNanos) {
				break // instance recorded nothing this window
			}
			f := (time.Duration(t.DownWaitNanos[e])).Seconds() / span
			if f > 1 {
				f = 1
			}
			if f > maxBP[down] {
				maxBP[down] = f
			}
		}
		iv.Latencies = append(iv.Latencies, t.Lats...)
	}
	for name, spec := range pipe.sources {
		iv.TargetRates[name] = spec.Rate(end)
	}
	for name, f := range maxBP {
		if f > 0 {
			iv.BackpressureFraction[name] = f
		}
		if f > cfg.BackpressureThreshold {
			iv.Backpressured = append(iv.Backpressured, name)
		}
	}
	// Map iteration order is random; the wire format and traces expect
	// deterministic ordering.
	sort.Strings(iv.Backpressured)
	sort.Slice(iv.Windows, func(a, b int) bool {
		if iv.Windows[a].ID.Operator != iv.Windows[b].ID.Operator {
			return iv.Windows[a].ID.Operator < iv.Windows[b].ID.Operator
		}
		return iv.Windows[a].ID.Index < iv.Windows[b].ID.Index
	})
	return iv, nil
}

// Collect cuts the open observation window: one WindowMetrics per
// instance from its wall-clock counters on every worker, plus the
// external signals (target and achieved source rates, backpressure
// flags, latency samples). The next window starts at the cut.
func (j *Job) Collect() (Interval, error) {
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		return Interval{}, ErrStopped
	}
	end := j.Now()
	start := j.winStart
	par := j.cur.Clone()
	var accs []wireAcc
	var links []LinkStats
	if end > start {
		// Take every accumulator and advance the window before building
		// a single WindowMetrics: a build error then discards the
		// interval wholesale — all counters reset and winStart advanced
		// together — instead of losing a random prefix of instances
		// while the next interval's span still includes this one.
		var mu sync.Mutex
		err := j.each(func(_ int, h handle) error {
			a, l, err := h.collect()
			mu.Lock()
			accs = append(accs, a...)
			links = append(links, l...)
			mu.Unlock()
			return err
		})
		if err != nil {
			j.mu.Unlock()
			return Interval{}, err
		}
		j.winStart = end
	}
	j.mu.Unlock()
	if len(links) > 0 {
		j.mirrorLinks(links)
	}
	iv, err := buildInterval(j.pipe, j.cfg, accs, start, end, par)
	if err != nil {
		return Interval{}, err
	}
	if j.obs != nil && len(accs) > 0 {
		j.obs.observeInterval(iv)
	}
	return iv, nil
}

// NextInterval blocks until the open window covers d seconds of job
// time, then cuts and returns it. It returns ErrStopped once the job
// was stopped.
func (j *Job) NextInterval(d float64) (Interval, error) {
	for {
		j.mu.Lock()
		stopped := j.stopped
		remain := j.winStart + d - j.Now()
		j.mu.Unlock()
		if stopped {
			return Interval{}, ErrStopped
		}
		if remain <= 0 {
			return j.Collect()
		}
		// Cap the sleep so a Stop during a long interval is noticed
		// promptly.
		const maxSleep = 50 * time.Millisecond
		if remain > maxSleep.Seconds() {
			time.Sleep(maxSleep)
		} else {
			time.Sleep(time.Duration(remain * float64(time.Second)))
		}
	}
}

// hashKey is FNV-1a 64 — the stable hash behind the router's
// rendezvous fallback, so an unseen key's owning instance is a pure
// function of (key, parallelism).
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
