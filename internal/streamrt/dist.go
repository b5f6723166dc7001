package streamrt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/obs"
)

// Distributed streamrt: a Job whose handles are remote drives N Worker
// processes, each hosting a subset of the pipeline's operator
// instances. Everything rides the framed transport (frame.go,
// transport.go): batches as DATA frames between workers, flow-control
// CREDIT frames back, DONE frames for the cross-process close cascade,
// and a JSON control protocol from the coordinator. There is one
// engine: the coordinator (job.go) is the same code whether its
// handles are one in-process localHandle or one remoteHandle per
// worker. A remoteHandle turns each handle call into a control RPC,
// encoding keyed state for the wire; the Worker at the other end
// decodes it and makes the same call on its own localHandle. So DS2
// decisions, convergence behaviour and sink results are identical
// whether a pipeline runs in one process or many.

// Control request kinds.
const (
	ctrlDeploy  = byte(1)
	ctrlStart   = byte(2)
	ctrlDrain   = byte(3)
	ctrlCollect = byte(4)
	ctrlWait    = byte(5)
	// ctrlFirstRec polls whether the current generation has processed
	// its first record — the tail of a rescale trace. Non-blocking by
	// design: the coordinator polls, so the handler never parks a
	// control goroutine for seconds.
	ctrlFirstRec = byte(6)
)

// wireConfig is Config in wire form, shipped with every deploy so all
// workers batch, flush, pace and stripe identically.
type wireConfig struct {
	ChannelCapacity       int                  `json:"channel_capacity"`
	BatchSize             int                  `json:"batch_size"`
	FlushIntervalNanos    int64                `json:"flush_interval_nanos"`
	PartitionWeights      map[string][]float64 `json:"partition_weights,omitempty"`
	BackpressureThreshold float64              `json:"backpressure_threshold"`
	JitterTolerance       float64              `json:"jitter_tolerance"`
	LatencySampleEvery    int                  `json:"latency_sample_every"`
	SourceSeqBlock        int64                `json:"source_seq_block"`
}

func toWireConfig(c Config) wireConfig {
	return wireConfig{
		ChannelCapacity:       c.ChannelCapacity,
		BatchSize:             c.BatchSize,
		FlushIntervalNanos:    int64(c.FlushInterval),
		PartitionWeights:      c.PartitionWeights,
		BackpressureThreshold: c.BackpressureThreshold,
		JitterTolerance:       c.JitterTolerance,
		LatencySampleEvery:    c.LatencySampleEvery,
		SourceSeqBlock:        c.SourceSeqBlock,
	}
}

func (w wireConfig) config() Config {
	return Config{
		ChannelCapacity:       w.ChannelCapacity,
		BatchSize:             w.BatchSize,
		FlushInterval:         time.Duration(w.FlushIntervalNanos),
		PartitionWeights:      w.PartitionWeights,
		BackpressureThreshold: w.BackpressureThreshold,
		JitterTolerance:       w.JitterTolerance,
		LatencySampleEvery:    w.LatencySampleEvery,
		SourceSeqBlock:        w.SourceSeqBlock,
	}
}

// traceCtx propagates a rescale trace's identity with a control
// request: the trace ID and the coordinator span covering this RPC. A
// worker that receives a non-zero traceCtx times its handler phases and
// ships them back as wireSpans on the reply; the coordinator re-bases
// them under the parent span (rescaleTrace.child), so one rescale
// yields one causally-ordered cross-process timeline.
type traceCtx struct {
	ID   string `json:"id,omitempty"`
	Span uint64 `json:"span,omitempty"`
}

// wireSpan is a worker-recorded span in wire form. Offsets are
// nanoseconds from the worker's handler start — never absolute worker
// clock readings, which would smuggle cross-host clock skew into the
// timeline.
type wireSpan struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// Control protocol bodies (JSON inside CONTROL/REPLY frames).
type deployReq struct {
	Workload    string                       `json:"workload"`
	Gen         uint32                       `json:"gen"`
	Worker      int                          `json:"worker"`
	Workers     int                          `json:"workers"`
	Peers       []string                     `json:"peers"` // data addr per worker index
	Parallelism map[string]int               `json:"parallelism"`
	Assign      map[string][]int             `json:"assign"`
	Tables      map[string]map[string]int    `json:"tables,omitempty"`
	States      map[string]map[string][]byte `json:"states,omitempty"`
	// Seqs, when present, overwrites this worker's per-source local
	// sequence counters before the generation starts — the
	// restore-from-savepoint path. Absent on ordinary deploys and
	// rescales, where the counters persist in the worker process.
	Seqs    map[string]int64 `json:"seqs,omitempty"`
	Elapsed float64          `json:"elapsed"` // coordinator job time, aligning worker epochs
	Config  wireConfig       `json:"config"`
	Trace   traceCtx         `json:"trace,omitempty"`
}

type deployResp struct {
	Spans []wireSpan `json:"spans,omitempty"`
}

type startReq struct {
	Gen uint32 `json:"gen"`
}

type drainReq struct {
	Trace traceCtx `json:"trace,omitempty"`
}

type drainResp struct {
	States map[string]map[string][]byte `json:"states,omitempty"`
	// Seqs reports the worker's per-source local sequence counters at
	// the drain, so a coordinator cutting a savepoint can persist the
	// exact resume point of every stripe.
	Seqs  map[string]int64 `json:"seqs,omitempty"`
	Spans []wireSpan       `json:"spans,omitempty"`
}

// firstRecReq/firstRecResp poll the first-record instant of generation
// Gen: At is 0 while pending, -1 when there is nothing to wait for
// (cancelled, other generation, nothing deployed), else the wall-clock
// unix-nano instant the worker processed its first record.
type firstRecReq struct {
	Gen uint32 `json:"gen"`
}

type firstRecResp struct {
	At int64 `json:"at"`
}

type collectResp struct {
	Accs  []wireAcc   `json:"accs,omitempty"`
	Links []LinkStats `json:"links,omitempty"`
}

type waitResp struct {
	Natural bool `json:"natural"`
}

// validateDistributed checks that a pipeline can cross process
// boundaries: every exchange needs a Codec (values travel as bytes),
// every keyed operator a StateCodec (rescale snapshots travel as
// bytes), and the frame header's u16 fields bound the shape.
func validateDistributed(pipe *Pipeline, par dataflow.Parallelism, workers int) error {
	if workers < 1 {
		return errors.New("streamrt: distributed deployment needs at least one worker")
	}
	if workers > 0xFFFF {
		return fmt.Errorf("streamrt: %d workers exceeds the transport's limit", workers)
	}
	if n := pipe.graph.NumOperators(); n > 0xFFFF {
		return fmt.Errorf("streamrt: %d operators exceeds the frame header's limit", n)
	}
	for name, p := range par {
		if p > 0xFFFF {
			return fmt.Errorf("streamrt: operator %q parallelism %d exceeds the frame header's limit", name, p)
		}
	}
	for name, spec := range pipe.ops {
		if spec.Codec == nil {
			return fmt.Errorf("streamrt: operator %q has no Codec; distributed exchanges move bytes", name)
		}
		if spec.Keyed && spec.State == nil {
			return fmt.Errorf("streamrt: keyed operator %q has no StateCodec; distributed rescales move state as bytes", name)
		}
	}
	return nil
}

// PlanPlacement maps every operator instance to a worker process:
// instance k goes to worker k % workers. Aligned indices across
// operators keep chains local (instance k of a source feeds instance k
// of a round-robin-preferring downstream on the same worker), and every
// worker hosts ⌈p/W⌉ or ⌊p/W⌋ instances of each operator.
func PlanPlacement(par dataflow.Parallelism, workers int) map[string][]int {
	out := make(map[string][]int, len(par))
	for name, p := range par {
		a := make([]int, p)
		for k := range a {
			a[k] = k % workers
		}
		out[name] = a
	}
	return out
}

// encodeStates serializes drained keyed state for the wire and for
// savepoint files.
func encodeStates(pipe *Pipeline, states map[string]map[string]any) (map[string]map[string][]byte, error) {
	if len(states) == 0 {
		return nil, nil
	}
	out := make(map[string]map[string][]byte, len(states))
	for op, kv := range states {
		spec := pipe.ops[op]
		if spec == nil {
			return nil, fmt.Errorf("streamrt: state for unknown operator %q", op)
		}
		enc := make(map[string][]byte, len(kv))
		for k, v := range kv {
			b, err := encodeOpState(spec, v)
			if err != nil {
				return nil, fmt.Errorf("streamrt: encoding %s[%q]: %w", op, k, err)
			}
			enc[k] = b
		}
		out[op] = enc
	}
	return out, nil
}

// decodeStates is the inverse of encodeStates: the one decode path for
// state that arrives from outside the process — a deploy from the
// coordinator, a drain reply from a worker, a savepoint file. User
// codecs may panic on bytes they never wrote (a savepoint from an older
// state layout passes the CRC but not the codec; so does a truncated
// blob in a well-formed control message); the recover turns that into
// an error instead of taking the process down.
func decodeStates(pipe *Pipeline, states map[string]map[string][]byte) (out map[string]map[string]any, err error) {
	if len(states) == 0 {
		return nil, nil
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("streamrt: decoding operator state: %v", r)
		}
	}()
	out = make(map[string]map[string]any, len(states))
	for op, kv := range states {
		spec := pipe.ops[op]
		if spec == nil {
			return nil, fmt.Errorf("streamrt: state for unknown operator %q", op)
		}
		dec := make(map[string]any, len(kv))
		for k, b := range kv {
			v, err := decodeOpState(spec, b)
			if err != nil {
				return nil, fmt.Errorf("streamrt: decoding %s[%q]: %w", op, k, err)
			}
			dec[k] = v
		}
		out[op] = dec
	}
	return out, nil
}

// Worker hosts one process's share of distributed deployments: it
// listens for the coordinator's control connection and its peers' data
// links, and serves each control request as the matching call on a
// localHandle — the same generation code an in-process Job drives —
// translating JSON and encoded state at the edge. One Worker serves any
// number of successive generations and jobs; the per-source sequence
// counters persist across generations of the same workload, so rescales
// never replay or skip a record.
type Worker struct {
	index int
	pipes map[string]*Pipeline
	reg   *obs.Registry
	tr    *transport

	mu       sync.Mutex
	workload string
	seqs     map[string]*int64
	obs      *jobObs      // worker-local telemetry, one per registry and workload
	h        *localHandle // the live generation's host; nil once drained
	cut      float64      // job time of the last collect, for the worker-local gauges
}

// NewWorker creates a worker with the given index (its position in the
// cluster's worker list — placement and hello frames identify it by
// this) serving the named pipelines. reg, when non-nil, exports the
// worker's runtime and per-link telemetry.
func NewWorker(index int, pipes map[string]*Pipeline, reg *obs.Registry) *Worker {
	return &Worker{index: index, pipes: pipes, reg: reg}
}

// Listen binds the worker's transport (control + data on one listener)
// and returns the bound address.
func (w *Worker) Listen(addr string) (string, error) {
	if w.tr != nil {
		return "", errors.New("streamrt: worker already listening")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	w.tr = newTransport(uint32(w.index), lis, w.reg)
	w.tr.handleControl = w.handleControl
	w.tr.serve()
	return w.tr.Addr(), nil
}

// Addr returns the transport's listen address ("" before Listen).
func (w *Worker) Addr() string {
	if w.tr == nil {
		return ""
	}
	return w.tr.Addr()
}

// Close tears the worker's transport down. Any deployed job should have
// been drained by the coordinator first.
func (w *Worker) Close() {
	if w.tr != nil {
		w.tr.close()
	}
}

// handleControl serves one coordinator request (on its own goroutine —
// drain and wait block).
func (w *Worker) handleControl(l *link, m ctrlMsg) {
	var body []byte
	var err error
	switch m.kind {
	case ctrlDeploy:
		body, err = w.deploy(m.body)
	case ctrlStart:
		body, err = w.start(m.body)
	case ctrlDrain:
		body, err = w.drain(m.body)
	case ctrlCollect:
		body, err = w.collect()
	case ctrlWait:
		body, err = w.wait()
	case ctrlFirstRec:
		body, err = w.firstRecord(m.body)
	default:
		err = fmt.Errorf("streamrt: unknown control kind %d", m.kind)
	}
	if err != nil {
		eb, _ := json.Marshal(map[string]string{"error": err.Error()})
		l.sendCtrl(frameReply, ctrlMsg{req: m.req, kind: 0, body: eb})
		return
	}
	if body == nil {
		body = []byte("{}")
	}
	l.sendCtrl(frameReply, ctrlMsg{req: m.req, kind: 1, body: body})
}

// handle returns the live generation's host (nil when none).
func (w *Worker) handle() *localHandle {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.h
}

// deploy builds this worker's share of a new generation. Sources stay
// gated until the coordinator's START — by then every worker has
// installed its receive table, so no frame can arrive unroutable.
func (w *Worker) deploy(body []byte) ([]byte, error) {
	h0 := time.Now()
	var req deployReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("streamrt: bad deploy request: %w", err)
	}
	pipe := w.pipes[req.Workload]
	if pipe == nil {
		return nil, fmt.Errorf("streamrt: unknown workload %q", req.Workload)
	}
	par := dataflow.Parallelism(req.Parallelism)
	if err := par.Validate(pipe.graph); err != nil {
		return nil, err
	}
	if err := validateDistributed(pipe, par, req.Workers); err != nil {
		return nil, err
	}
	if req.Worker != w.index {
		return nil, fmt.Errorf("streamrt: deploy addressed to worker %d, this is worker %d", req.Worker, w.index)
	}
	states, err := decodeStates(pipe, req.States)
	if err != nil {
		return nil, err
	}
	decoded := time.Since(h0)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.h != nil {
		return nil, errors.New("streamrt: deploy while a generation is live (drain first)")
	}
	if w.seqs == nil || w.workload != req.Workload {
		w.workload = req.Workload
		w.seqs = newSeqs(pipe)
		if w.reg != nil {
			w.obs = newJobObs(w.reg, pipe)
		}
	}
	cfg := req.Config.config()
	cfg.Metrics = w.reg
	h := newLocalHandle(pipe, cfg, w.obs, w.tr, w.seqs)
	g := &generation{
		gen:     req.Gen,
		worker:  req.Worker,
		workers: req.Workers,
		peers:   req.Peers,
		epoch:   time.Now().Add(-time.Duration(req.Elapsed * float64(time.Second))),
		par:     par,
		assign:  req.Assign,
		tables:  req.Tables,
		states:  states,
		seqs:    req.Seqs,
	}
	built0 := time.Since(h0)
	if _, err := h.deploy(g, req.Trace); err != nil {
		return nil, err
	}
	w.h, w.cut = h, h.Now()
	resp := deployResp{}
	if req.Trace.ID != "" {
		resp.Spans = []wireSpan{
			{Name: "deploy/decode_state", Start: 0, End: int64(decoded)},
			{Name: "deploy/build", Start: int64(built0), End: int64(time.Since(h0))},
		}
	}
	return json.Marshal(resp)
}

// start releases the deployed generation's sources.
func (w *Worker) start(body []byte) ([]byte, error) {
	var req startReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("streamrt: bad start request: %w", err)
	}
	h := w.handle()
	if h == nil {
		return nil, fmt.Errorf("streamrt: start for generation %d, none deployed", req.Gen)
	}
	return nil, h.start(req.Gen)
}

// drain stops this worker's share of the current generation — the
// coordinator broadcasts drains, so the cross-process close cascade
// completes everywhere — and returns its keyed state, encoded, with the
// source counters. A traced request additionally gets the
// teardown/encode phase spans.
func (w *Worker) drain(body []byte) ([]byte, error) {
	var req drainReq
	if len(body) > 0 {
		// Tolerate empty and legacy bodies: a drain without trace
		// context is still a drain.
		_ = json.Unmarshal(body, &req)
	}
	h0 := time.Now()
	var resp drainResp
	if h := w.handle(); h != nil {
		d, err := h.drain(req.Trace)
		if err != nil {
			return nil, err
		}
		drained := time.Since(h0)
		w.mu.Lock()
		w.h = nil
		w.mu.Unlock()
		resp.Seqs = d.seqs
		if resp.States, err = encodeStates(h.pipe, d.states); err != nil {
			return nil, err
		}
		if req.Trace.ID != "" {
			resp.Spans = []wireSpan{
				{Name: "drain/teardown", Start: 0, End: int64(drained)},
				{Name: "drain/encode_state", Start: int64(drained), End: int64(time.Since(h0))},
			}
		}
	}
	return json.Marshal(resp)
}

// firstRecord answers the coordinator's first-record poll for one
// generation (see firstRecResp). Non-blocking: the coordinator polls.
func (w *Worker) firstRecord(body []byte) ([]byte, error) {
	var req firstRecReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("streamrt: bad first-record request: %w", err)
	}
	resp := firstRecResp{At: -1}
	if h := w.handle(); h != nil {
		resp.At, _, _ = h.firstRecord(req.Gen)
	}
	return json.Marshal(resp)
}

// collect takes the local instances' accumulators plus the transport's
// link counters. When the worker exports its own registry, the same
// accumulators additionally feed the worker-local §3 gauges — so a
// worker's /metrics page shows its own share of the time splits and
// rates, not just the hot-path counters.
func (w *Worker) collect() ([]byte, error) {
	h := w.handle()
	if h == nil {
		return json.Marshal(collectResp{Links: w.tr.linkSnapshots()})
	}
	accs, links, err := h.collect()
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	start, end, o := w.cut, h.Now(), w.obs
	w.cut = end
	w.mu.Unlock()
	if o != nil && len(accs) > 0 && end > start {
		localPar := make(dataflow.Parallelism)
		for _, a := range accs {
			localPar[a.Op]++
		}
		// Best-effort: the coordinator's interval build is the one that
		// drives decisions; this one only refreshes gauges.
		if iv, err := buildInterval(h.pipe, h.cfg, accs, start, end, localPar); err == nil {
			o.observeInterval(iv)
		}
	}
	return json.Marshal(collectResp{Accs: accs, Links: links})
}

// wait blocks until the current generation's local instances have all
// exited, reporting whether the exit was natural source exhaustion (as
// opposed to a drain-for-rescale).
func (w *Worker) wait() ([]byte, error) {
	resp := waitResp{}
	if h := w.handle(); h != nil {
		var err error
		if resp.Natural, err = h.wait(); err != nil {
			return nil, err
		}
	}
	return json.Marshal(resp)
}

// remoteHandle is the coordinator's end of one worker's control
// connection: a correlation table over CONTROL/REPLY frames, plus the
// state encode/decode that lets the coordinator deal in decoded state
// whatever its handles are.
type remoteHandle struct {
	worker   int
	l        *link
	pipe     *Pipeline
	workload string
	cfg      wireConfig

	mu   sync.Mutex
	next uint32
	pend map[uint32]chan ctrlMsg
}

func dialRemote(worker int, addr string, pipe *Pipeline, workload string, cfg Config) (*remoteHandle, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("streamrt: dialing worker %d at %s: %w", worker, addr, err)
	}
	l := newLink(conn, uint32(worker), &linkStats{label: fmt.Sprintf("ctl->w%d", worker)})
	go l.writeLoop()
	l.sendHello(helloMsg{proto: frameProto, sender: helloCoordinator})
	r := &remoteHandle{
		worker: worker, l: l, pipe: pipe, workload: workload, cfg: toWireConfig(cfg),
		pend: make(map[uint32]chan ctrlMsg),
	}
	go r.readLoop()
	return r, nil
}

func (r *remoteHandle) readLoop() {
	br := bufio.NewReaderSize(r.l.conn, 1<<16)
	var buf []byte
	for {
		typ, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			r.l.close(err)
			return
		}
		if typ != frameReply {
			r.l.close(fmt.Errorf("streamrt: unexpected frame type %d on control client", typ))
			return
		}
		m, err := parseCtrl(payload)
		if err != nil {
			r.l.close(err)
			return
		}
		r.mu.Lock()
		ch := r.pend[m.req]
		delete(r.pend, m.req)
		r.mu.Unlock()
		if ch != nil {
			m.body = append([]byte(nil), m.body...) // payload aliases the read buffer
			ch <- m
		}
	}
}

// rpc performs one request/reply round trip. No timeout: drains and
// waits legitimately block; a dead link fails all callers promptly.
func (r *remoteHandle) rpc(kind byte, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ch := make(chan ctrlMsg, 1)
	r.mu.Lock()
	r.next++
	id := r.next
	r.pend[id] = ch
	r.mu.Unlock()
	r.l.sendCtrl(frameControl, ctrlMsg{req: id, kind: kind, body: body})
	select {
	case m := <-ch:
		if m.kind == 0 {
			var e struct {
				Error string `json:"error"`
			}
			json.Unmarshal(m.body, &e)
			return fmt.Errorf("streamrt: worker %d: %s", r.worker, e.Error)
		}
		if resp != nil {
			return json.Unmarshal(m.body, resp)
		}
		return nil
	case <-r.l.closed:
		r.mu.Lock()
		delete(r.pend, id)
		r.mu.Unlock()
		err := r.l.failure()
		if err == nil {
			err = errors.New("connection closed")
		}
		return fmt.Errorf("streamrt: worker %d control link: %w", r.worker, err)
	}
}

func (r *remoteHandle) deploy(g *generation, tc traceCtx) ([]wireSpan, error) {
	enc, err := encodeStates(r.pipe, g.states)
	if err != nil {
		return nil, err
	}
	req := deployReq{
		Workload:    r.workload,
		Gen:         g.gen,
		Worker:      g.worker,
		Workers:     g.workers,
		Peers:       g.peers,
		Parallelism: g.par,
		Assign:      g.assign,
		Tables:      g.tables,
		States:      enc,
		Seqs:        g.seqs,
		Elapsed:     time.Since(g.epoch).Seconds(),
		Config:      r.cfg,
		Trace:       tc,
	}
	var resp deployResp
	err = r.rpc(ctrlDeploy, req, &resp)
	return resp.Spans, err
}

func (r *remoteHandle) start(gen uint32) error {
	return r.rpc(ctrlStart, startReq{Gen: gen}, nil)
}

func (r *remoteHandle) drain(tc traceCtx) (drained, error) {
	var resp drainResp
	if err := r.rpc(ctrlDrain, drainReq{Trace: tc}, &resp); err != nil {
		return drained{}, err
	}
	states, err := decodeStates(r.pipe, resp.States)
	return drained{states: states, seqs: resp.Seqs, spans: resp.Spans}, err
}

func (r *remoteHandle) collect() ([]wireAcc, []LinkStats, error) {
	var resp collectResp
	err := r.rpc(ctrlCollect, struct{}{}, &resp)
	return resp.Accs, resp.Links, err
}

func (r *remoteHandle) wait() (bool, error) {
	var resp waitResp
	err := r.rpc(ctrlWait, struct{}{}, &resp)
	return resp.Natural, err
}

func (r *remoteHandle) firstRecord(gen uint32) (int64, <-chan struct{}, error) {
	var resp firstRecResp
	err := r.rpc(ctrlFirstRec, firstRecReq{Gen: gen}, &resp)
	return resp.At, nil, err
}

func (r *remoteHandle) close() { r.l.close(nil) }

// linkMirror holds the last collected snapshot of one link's counters,
// read by the coordinator registry's CounterFuncs.
type linkMirror struct {
	mu sync.Mutex
	v  LinkStats
}

func (m *linkMirror) get() LinkStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v
}

// mirrorLinks folds the workers' link counters into the coordinator's
// registry. The same label appears on both ends of a connection (the
// dialer counts tx, the acceptor rx), so summing per label yields the
// link's complete traffic.
func (j *Job) mirrorLinks(links []LinkStats) {
	j.linkMu.Lock()
	defer j.linkMu.Unlock()
	agg := make(map[string]LinkStats, len(links))
	for _, s := range links {
		a := agg[s.Link]
		a.Link = s.Link
		a.TxBytes += s.TxBytes
		a.TxFrames += s.TxFrames
		a.RxBytes += s.RxBytes
		a.RxFrames += s.RxFrames
		a.Stalls += s.Stalls
		agg[s.Link] = a
	}
	for label, s := range agg {
		m := j.linkSeen[label]
		if m == nil {
			m = &linkMirror{}
			j.linkSeen[label] = m
			if j.cfg.Metrics != nil {
				registerLinkStats(j.cfg.Metrics, label, m.get)
			}
		}
		m.mu.Lock()
		m.v = s
		m.mu.Unlock()
	}
}

// LinkTotals returns the last collected per-link counters, aggregated
// across both endpoints of every connection. Empty for an in-process
// job, which has no links.
func (j *Job) LinkTotals() []LinkStats {
	j.linkMu.Lock()
	defer j.linkMu.Unlock()
	out := make([]LinkStats, 0, len(j.linkSeen))
	for _, m := range j.linkSeen {
		out = append(out, m.get())
	}
	return out
}
