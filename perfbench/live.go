package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/metrics"
	"ds2/internal/nexmark"
	"ds2/internal/obs"
	"ds2/internal/streamrt"
)

// The live workloads run the shipped Nexmark pipelines with every
// pacing cost at zero, so what is timed is the runtime itself (codec,
// batching, routing, channel handoff, operator step), not time.Sleep.

const (
	// latencyRate is the fixed offered load of every latency phase.
	latencyRate = 200_000
	// flatOut is an offered rate no source can reach: the source never
	// sleeps, so a phase at this rate measures capacity.
	flatOut = 1e12
	// collectEvery paces the window cuts that give the latency figures,
	// the source lag and the per-operator split.
	collectEvery = 100 * time.Millisecond
	// flatSampleEvery thins the sinks' latency samples in phases that
	// report no latency: sampling every record at millions of records
	// per second would make a capacity phase measure the sample
	// buffers' garbage collection.
	flatSampleEvery = 64
	// firstRecordTimeout bounds the wait for a new deployment's first
	// source record.
	firstRecordTimeout = 10 * time.Second
)

// zeroCosts removes the per-record pacing sleeps of every stage.
func zeroCosts() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, op := range liveOps {
		out[op] = 0
	}
	return out
}

// liveConfig is the query config of one phase.
func liveConfig(seed int64, rate float64, limit int64, distributed bool) nexmark.LiveQueryConfig {
	return nexmark.LiveQueryConfig{
		Rate1: rate, Seed: seed, Limit: limit, Costs: zeroCosts(), Distributed: distributed,
	}
}

// liveEngine is what the phases drive; *streamrt.Job and
// *streamrt.Cluster both provide it.
type liveEngine interface {
	Collect() (streamrt.Interval, error)
	Rescale(dataflow.Parallelism) error
	Wait()
	Stop() map[string]map[string]any
}

// livePhase is one deployment of a live query, from construction to
// drained final state.
type livePhase struct {
	env     *runEnv
	name    string
	cfg     nexmark.LiveQueryConfig
	eng     liveEngine
	job     *streamrt.Job     // single-process phases
	cluster *streamrt.Cluster // distributed phases
	workers []*streamrt.Worker
	// counters are the flushed-record counters of every registry the
	// deployment reports into: the first flush marks the first source
	// record leaving the source.
	counters []*obs.Counter
	span     openSpan
	t0       time.Time // construction started
	first    time.Time // first source record seen
	limit    int64     // records the bounded sources emit
	end      time.Time // pipeline drained
	cpu      time.Duration
	// ivs are the phase's window cuts without their latency samples;
	// lats pools the sinks' samples of every window after the first,
	// which is warm-up, in milliseconds.
	ivs     []streamrt.Interval
	lats    []metrics.LatencySample
	lastCut time.Time
}

// newPhase starts timing a phase's set-up. It collects garbage first,
// so a collection the previous phase left running does not land in
// this set-up.
func newPhase(env *runEnv, name string, cfg nexmark.LiveQueryConfig) *livePhase {
	runtime.GC()
	return &livePhase{env: env, name: name, cfg: cfg, limit: cfg.Limit, span: env.tr.begin("phase/"+name, 0), t0: time.Now()}
}

// latencyPhase says whether a phase at cfg measures record latency:
// the paced phases up to latencyRate do. The others thin the sinks'
// samples and keep none.
func latencyPhase(cfg nexmark.LiveQueryConfig) bool { return cfg.Rate1 <= latencyRate }

// sampleEvery is the sinks' latency sampling stride for a phase.
func sampleEvery(cfg nexmark.LiveQueryConfig) int {
	if latencyPhase(cfg) {
		return 1
	}
	return flatSampleEvery
}

// setup is the phase's set-up time: construction to first source
// record.
func (p *livePhase) setup() time.Duration { return p.first.Sub(p.t0) }

func flushCounter(reg *obs.Registry) *obs.Counter {
	return reg.Counter("streamrt_flushed_records_total", "")
}

// startJob builds query at cfg and deploys it as a single-process Job.
func startJob(env *runEnv, name, query string, cfg nexmark.LiveQueryConfig, par dataflow.Parallelism) (*livePhase, error) {
	p := newPhase(env, name, cfg)
	var w *nexmark.LiveWorkload
	var err error
	env.tr.do("nexmark.LiveQuery", p.span.id, func(uint64) { w, err = nexmark.LiveQuery(query, cfg) })
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	env.tr.do("streamrt.NewJob", p.span.id, func(uint64) {
		p.job, err = streamrt.NewJob(w.Pipeline, par, streamrt.Config{Metrics: reg, LatencySampleEvery: sampleEvery(cfg)})
	})
	if err != nil {
		return nil, err
	}
	p.eng = p.job
	p.counters = []*obs.Counter{flushCounter(reg)}
	return p, p.waitFirst()
}

// startCluster builds query at cfg (distributed) and deploys it over
// nWorkers in-process workers on loopback TCP.
func startCluster(env *runEnv, name, query string, cfg nexmark.LiveQueryConfig, par dataflow.Parallelism, nWorkers int) (*livePhase, error) {
	p := newPhase(env, name, cfg)
	var w *nexmark.LiveWorkload
	var err error
	env.tr.do("nexmark.LiveQuery", p.span.id, func(uint64) { w, err = nexmark.LiveQuery(query, cfg) })
	if err != nil {
		return nil, err
	}
	pipes := map[string]*streamrt.Pipeline{query: w.Pipeline}
	addrs := make([]string, nWorkers)
	env.tr.do("streamrt.Worker.Listen", p.span.id, func(uint64) {
		for i := range addrs {
			reg := obs.NewRegistry()
			wk := streamrt.NewWorker(i, pipes, reg)
			p.workers = append(p.workers, wk)
			p.counters = append(p.counters, flushCounter(reg))
			if addrs[i], err = wk.Listen("127.0.0.1:0"); err != nil {
				return
			}
		}
	})
	if err != nil {
		p.close()
		return nil, err
	}
	env.tr.do("streamrt.NewCluster", p.span.id, func(uint64) {
		p.cluster, err = streamrt.NewCluster(w.Pipeline, query, par, addrs, streamrt.Config{Metrics: obs.NewRegistry(), LatencySampleEvery: sampleEvery(cfg)})
	})
	if err != nil {
		p.close()
		return nil, err
	}
	p.eng = p.cluster
	if err := p.waitFirst(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// waitFirst spins until some source record has left its source.
func (p *livePhase) waitFirst() error {
	deadline := time.Now().Add(firstRecordTimeout)
	for {
		for _, c := range p.counters {
			if c.Value() > 0 {
				p.first = time.Now()
				p.cpu = cpuTime()
				p.lastCut = p.first
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: no source record within %v", p.name, firstRecordTimeout)
		}
		runtime.Gosched()
	}
}

// collect cuts one observation window and keeps it; latency samples
// after the first window go to p.lats.
func (p *livePhase) collect() (streamrt.Interval, error) {
	var iv streamrt.Interval
	var err error
	p.env.tr.do("streamrt.Collect", p.span.id, func(uint64) { iv, err = p.eng.Collect() })
	if err != nil {
		return iv, err
	}
	p.lastCut = time.Now()
	if len(p.ivs) > 0 && latencyPhase(p.cfg) {
		for _, s := range iv.Latencies {
			p.lats = append(p.lats, metrics.LatencySample{Latency: s.Latency * 1e3, Weight: s.Weight})
		}
	}
	iv.Latencies = nil
	p.ivs = append(p.ivs, iv)
	return iv, nil
}

// minLastWindow keeps the final cut from being so short that counters
// merged at exit overfill it.
const minLastWindow = 20 * time.Millisecond

// drain collects every collectEvery until the bounded sources are
// exhausted and the pipeline has drained, then cuts the last window.
// It records when the pipeline finished and the CPU spent since the
// first record.
func (p *livePhase) drain() error {
	done := make(chan struct{})
	go func() {
		p.eng.Wait()
		p.end = time.Now()
		p.cpu = cpuTime() - p.cpu
		close(done)
	}()
	tick := time.NewTicker(collectEvery)
	defer tick.Stop()
	for {
		select {
		case <-done:
			time.Sleep(minLastWindow - time.Since(p.lastCut))
			_, err := p.collect()
			return err
		case <-tick.C:
			if _, err := p.collect(); err != nil {
				<-done
				return err
			}
		}
	}
}

// span is the phase's length from first record to drained pipeline.
func (p *livePhase) spanSeconds() float64 { return p.end.Sub(p.first).Seconds() }

// throughput is source records per second over the drained phase.
func (p *livePhase) throughput() float64 { return float64(p.limit) / p.spanSeconds() }

// cpuPerRecord is process CPU per record over the drained phase.
func (p *livePhase) cpuPerRecord() float64 { return float64(p.cpu) / float64(p.limit) }

// stop tears the deployment down and returns the final keyed state.
func (p *livePhase) stop() map[string]map[string]any {
	var st map[string]map[string]any
	p.env.tr.do("streamrt.Stop", p.span.id, func(uint64) { st = p.eng.Stop() })
	p.close()
	return st
}

// close releases the cluster's connections and workers and ends the
// phase span.
func (p *livePhase) close() {
	if p.cluster != nil {
		p.cluster.Close()
		p.cluster = nil
	}
	for _, w := range p.workers {
		w.Close()
	}
	p.workers = nil
	p.env.tr.end(p.span)
}

// rescale times one Rescale call.
func (p *livePhase) rescale(par dataflow.Parallelism) (time.Duration, error) {
	var err error
	t0 := time.Now()
	p.env.tr.do("streamrt.Rescale", p.span.id, func(uint64) { err = p.eng.Rescale(par) })
	return time.Since(t0), err
}

// latencyFigures adds the phase's latency figures: the p50 and p99 of
// all the sinks' samples after the warm-up window. Reported as medians
// over the jobs of a run, one disturbed job does not move them, but a
// stall that recurs in most jobs does.
func (p *livePhase) latencyFigures(figs figures) error {
	sum, err := summarize(p.lats, 0.99)
	if err != nil {
		return fmt.Errorf("%s latency: %w", p.name, err)
	}
	figs.add("latency_p50_ms", sum.P50)
	figs.add("latency_tail_ms", sum.Tail)
	p.env.logf("%s: latency p50 %.4f ms, p%.4g %.4f ms over %d samples", p.name, sum.P50, 100*sum.TailLevel, sum.Tail, sum.N)
	return nil
}

// rounds is how many times a workload repeats its measured jobs: every
// end-to-end figure is the median over rounds, so one disturbed job
// does not move it.
func rounds(env *runEnv) int { return max(3, int(env.budget.Seconds())) }

// figures collects one value per round for each metric.
type figures map[string][]float64

func (f figures) add(name string, v float64) { f[name] = append(f[name], v) }

// report sets each metric to its median over rounds and logs the
// per-round values.
func (f figures) report(env *runEnv, res *results) {
	names := make([]string, 0, len(f))
	for n := range f {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.set(n, median(f[n]))
		env.logf("rounds %-28s %v", n, roundFmt(f[n]))
	}
}

func roundFmt(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// lagTally sums the records due and the records late over a run's
// latency jobs.
type lagTally struct{ due, late float64 }

// addLag adds the phase to tally and returns its lag: how many records
// late the paced source finished against its schedule at rate. The
// no-backlog source never makes up a missed slot, so every stall
// leaves a permanent deficit.
func (p *livePhase) addLag(tally *lagTally, rate float64) float64 {
	late := max(0, sourceLag(rate, p.spanSeconds(), p.limit))
	tally.due += rate * p.spanSeconds()
	tally.late += late
	return late
}

// check fails the run when its latency jobs together fell more than
// the share maxLate of their due records behind: the run then did not
// measure the load it claims.
func (t lagTally) check(res *results, maxLate float64) {
	if t.due > 0 && t.late/t.due > maxLate {
		res.fail(fmt.Errorf("source %.1f%% behind its schedule over the latency jobs", 100*t.late/t.due))
	}
}

// opSplit accumulates one operator's §3 time split over windows.
type opSplit struct {
	window, deser, proc, ser, waitIn, waitOut, processed float64
}

// reportSplit sets the streamrt.<op>.* layer metrics from the windows
// of one phase that ran for span seconds.
func reportSplit(res *results, ivs []streamrt.Interval, span float64) {
	split := make(map[string]*opSplit)
	for _, iv := range ivs {
		for _, w := range iv.Windows {
			s := split[w.ID.Operator]
			if s == nil {
				s = &opSplit{}
				split[w.ID.Operator] = s
			}
			s.window += w.Window
			s.deser += w.Deserialization
			s.proc += w.Processing
			s.ser += w.Serialization
			s.waitIn += w.WaitingInput
			s.waitOut += w.WaitingOutput
			s.processed += w.Processed
		}
	}
	for op, s := range split {
		if s.window <= 0 || s.processed <= 0 {
			continue
		}
		pre := "streamrt." + op + "."
		res.set(pre+"busy_frac", (s.deser+s.proc+s.ser)/s.window)
		res.set(pre+"deser_ns", s.deser*1e9/s.processed)
		res.set(pre+"proc_ns", s.proc*1e9/s.processed)
		res.set(pre+"ser_ns", s.ser*1e9/s.processed)
		res.set(pre+"wait_in_frac", s.waitIn/s.window)
		res.set(pre+"wait_out_frac", s.waitOut/s.window)
		res.set(pre+"rps", s.processed/span)
	}
}

// reportRescaleTraces sets the streamrt.rescale.*_ms medians from the
// engine's completed rescale timelines.
func reportRescaleTraces(res *results, views []obs.TraceView) {
	phases := map[string][]float64{}
	for _, v := range views {
		if v.Name != "rescale" || !v.Complete {
			continue
		}
		for _, s := range v.Spans {
			if s.Parent == 0 {
				phases[s.Name] = append(phases[s.Name], float64(s.Duration())/1e6)
			}
		}
		drain, ok1 := v.Span("drain")
		first, ok2 := v.Span("first_record")
		if ok1 && ok2 {
			phases["downtime"] = append(phases["downtime"], float64(first.EndNs-drain.StartNs)/1e6)
		}
	}
	for ph, xs := range phases {
		res.set("streamrt.rescale."+ph+"_ms", median(xs))
	}
}

// reportLinks sets the streamrt.link.* metrics from a cluster's
// cumulative link counters over a phase of span seconds.
func reportLinks(res *results, links []streamrt.LinkStats, span float64) {
	var bytes, frames, stalls float64
	for _, l := range links {
		bytes += float64(l.TxBytes)
		frames += float64(l.TxFrames)
		stalls += float64(l.Stalls)
	}
	res.set("streamrt.link.bytes_per_s", bytes/span)
	res.set("streamrt.link.frames_per_s", frames/span)
	res.set("streamrt.link.stalls_per_s", stalls/span)
	if frames > 0 {
		res.set("streamrt.link.bytes_per_frame", bytes/frames)
	}
}

// allocProbe reads the allocation and GC-CPU counters around a phase
// (traced runs only: reading them stops the world).
type allocProbe struct {
	ms      runtime.MemStats
	samples []rtmetrics.Sample
}

var gcCPUMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func startAllocProbe() *allocProbe {
	a := &allocProbe{}
	runtime.ReadMemStats(&a.ms)
	a.samples = make([]rtmetrics.Sample, len(gcCPUMetrics))
	for i, n := range gcCPUMetrics {
		a.samples[i].Name = n
	}
	rtmetrics.Read(a.samples)
	return a
}

// report sets the proc.* metrics for records processed since start.
func (a *allocProbe) report(res *results, records int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := make([]rtmetrics.Sample, len(gcCPUMetrics))
	for i, n := range gcCPUMetrics {
		now[i].Name = n
	}
	rtmetrics.Read(now)
	res.set("proc.allocs_per_rec", float64(ms.Mallocs-a.ms.Mallocs)/float64(records))
	res.set("proc.alloc_bytes_per_rec", float64(ms.TotalAlloc-a.ms.TotalAlloc)/float64(records))
	gc := now[0].Value.Float64() - a.samples[0].Value.Float64()
	total := now[1].Value.Float64() - a.samples[1].Value.Float64()
	if total > 0 {
		res.set("proc.gc_cpu_frac", gc/total)
	}
}

// codecProbeN is how many seeded bids the codec probe times.
const codecProbeN = 200_000

// reportCodec times bid generation and the bid codec on the run's own
// seeded bids (traced runs).
func reportCodec(env *runEnv, res *results) {
	bids := make([]nexmark.Bid, codecProbeN)
	var gen, enc, dec time.Duration
	env.tr.do("nexmark.LiveBidAt", 0, func(uint64) {
		t0 := time.Now()
		for i := range bids {
			bids[i] = nexmark.LiveBidAt(env.seed, int64(i))
		}
		gen = time.Since(t0)
	})
	buf := make([]byte, 0, codecProbeN*32)
	var codec nexmark.BidCodec
	env.tr.do("nexmark.BidCodec.AppendEncode", 0, func(uint64) {
		t0 := time.Now()
		for i := range bids {
			b := bids[i] // the codec recycles what it encodes
			buf = codec.AppendEncode(buf, &b)
		}
		enc = time.Since(t0)
	})
	var sum int64
	env.tr.do("nexmark.BidCodec.Decode", 0, func(uint64) {
		t0 := time.Now()
		for i := range bids {
			sum += codec.Decode(buf[i*32 : (i+1)*32]).(*nexmark.Bid).Price
		}
		dec = time.Since(t0)
	})
	var want int64
	for i := range bids {
		want += bids[i].Price
	}
	res.op(codecProbeN, func() error {
		if sum != want {
			return fmt.Errorf("bid codec: decoded price sum %d, want %d", sum, want)
		}
		return nil
	}())
	res.set("nexmark.bid_gen_ns", float64(gen)/codecProbeN)
	res.set("nexmark.bidcodec.encode_ns", float64(enc)/codecProbeN)
	res.set("nexmark.bidcodec.decode_ns", float64(dec)/codecProbeN)
}

// timingStore wraps a CheckpointStore and times its calls.
type timingStore struct {
	streamrt.CheckpointStore
	mu         sync.Mutex
	saves, lds []time.Duration
	bytes      []float64
}

func (s *timingStore) Save(name string, data []byte) error {
	t0 := time.Now()
	err := s.CheckpointStore.Save(name, data)
	s.mu.Lock()
	s.saves = append(s.saves, time.Since(t0))
	s.bytes = append(s.bytes, float64(len(data)))
	s.mu.Unlock()
	return err
}

func (s *timingStore) Load(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := s.CheckpointStore.Load(name)
	s.mu.Lock()
	s.lds = append(s.lds, time.Since(t0))
	s.mu.Unlock()
	return data, err
}

// sumDelivered adds up q1-sink's per-auction counts: the records that
// reached the sink.
func sumDelivered(states map[string]map[string]any) int64 {
	var n int64
	for _, st := range states["q1-sink"] {
		if agg, ok := st.(*nexmark.Q1Agg); ok {
			n += int64(agg.Count)
		}
	}
	return n
}

// checkQ1Phase accounts a drained q1 phase of limit records: records
// due against records delivered, and the byte-exact oracle check.
func checkQ1Phase(env *runEnv, res *results, p *livePhase, states map[string]map[string]any, limit int64) {
	delivered := sumDelivered(states)
	res.opCount(limit, max(0, limit-delivered))
	env.logf("%s: drained, checking %d records", p.name, limit)
	var err error
	env.tr.do("nexmark.LiveExpectedQ1", 0, func(uint64) {
		err = checkQ1(states, nexmark.LiveExpectedQ1(p.cfg, limit))
	})
	if err != nil {
		res.fail(fmt.Errorf("%s: %w", p.name, err))
	}
}

// setupReps is how many extra set-ups each live run times, on top of
// its phases, so setup_s is a median of several.
const setupReps = 10

// timeSetups deploys setupReps times through start and returns each
// set-up time; every deployment is stopped at once.
func timeSetups(start func() (*livePhase, error)) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupReps; i++ {
		p, err := start()
		if err != nil {
			return nil, err
		}
		out = append(out, p.setup())
		p.stop()
	}
	return out, nil
}
