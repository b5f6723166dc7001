package streamrt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ds2/internal/dataflow"
)

// handle is the coordinator's grip on one worker: the one seam every
// Job operation drives. A localHandle runs the worker's share of each
// generation in this process; a remoteHandle drives a Worker process
// over its control connection, encoding state for the wire. Handles
// must be safe for concurrent use: Wait and the first-record resolver
// call them without holding the Job's lock.
type handle interface {
	// deploy installs the worker's share of generation g with its
	// sources gated, returning worker-side trace spans (remote only).
	deploy(g *generation, tc traceCtx) ([]wireSpan, error)
	// start releases generation gen's sources.
	start(gen uint32) error
	// drain stops and drains the current generation, returning its
	// keyed state and the worker's source counters.
	drain(tc traceCtx) (drained, error)
	// collect takes every instance accumulator (the worker's next
	// window starts now) plus the worker's link counters.
	collect() ([]wireAcc, []LinkStats, error)
	// wait blocks until the current generation's instances have all
	// exited, reporting whether that was natural source exhaustion
	// rather than a drain.
	wait() (natural bool, err error)
	// firstRecord reports when generation gen processed its first
	// record: 0 while pending, -1 when there is nothing to wait for
	// (cancelled, other generation, nothing deployed), else the
	// unix-nano instant. ready, when non-nil, closes once a pending
	// answer resolves; without it the caller polls.
	firstRecord(gen uint32) (at int64, ready <-chan struct{}, err error)
	// close releases the handle's connection, if it has one.
	close()
}

// generation is one deployment as the coordinator hands it to one
// worker: the job-wide shape plus this worker's slice of the state.
type generation struct {
	gen     uint32
	worker  int
	workers int
	peers   []string  // data address per worker index (nil in-process)
	epoch   time.Time // the coordinator's job-time zero
	par     dataflow.Parallelism
	assign  map[string][]int          // operator -> instance -> hosting worker
	tables  map[string]map[string]int // keyed operator -> routing table
	states  map[string]map[string]any // this worker's keyed state
	// seqs, when set, overwrites the worker's per-source counters before
	// anything emits — the restore-from-savepoint path.
	seqs map[string]int64
}

// drained is one worker's share of a drained generation.
type drained struct {
	states map[string]map[string]any
	seqs   map[string]int64 // per-source local counters: the exact resume points
	spans  []wireSpan
}

// localHandle hosts one worker's share of successive generations in
// this process: goroutine-per-instance workers exchanging records over
// bounded channels, with edges to instances placed elsewhere riding the
// transport. NewJob drives one directly; a Worker drives one through
// its control adapter. It deals in decoded state only.
type localHandle struct {
	pipe *Pipeline
	cfg  Config
	obs  *jobObs
	tr   *transport        // nil in a single-process job
	seqs map[string]*int64 // per-source sequence counters, shared across generations

	// batches recycles exchange batches: receivers return every batch
	// they finish, so the steady-state exchange allocates nothing per
	// record.
	batches sync.Pool

	mu    sync.Mutex
	epoch time.Time // job time zero, aligned to the coordinator's at deploy
	dep   *deployment
}

func newLocalHandle(p *Pipeline, cfg Config, o *jobObs, tr *transport, seqs map[string]*int64) *localHandle {
	return &localHandle{pipe: p, cfg: cfg.withDefaults(), obs: o, tr: tr, seqs: seqs}
}

// newSeqs returns fresh per-source sequence counters for p.
func newSeqs(p *Pipeline) map[string]*int64 {
	seqs := make(map[string]*int64, len(p.sources))
	for name := range p.sources {
		seqs[name] = new(int64)
	}
	return seqs
}

// Now returns the current job time in seconds.
func (h *localHandle) Now() float64 { return time.Since(h.epoch).Seconds() }

// getBatch takes an empty batch from the pool (or allocates one sized
// for BatchSize records).
func (h *localHandle) getBatch() *batch {
	if b, ok := h.batches.Get().(*batch); ok {
		return b
	}
	return &batch{
		msgs: make([]message, 0, h.cfg.BatchSize),
		buf:  make([]byte, 0, h.cfg.BatchSize*32),
	}
}

// putBatch resets and recycles a processed batch. Message values are
// cleared so the pool does not pin records alive. A batch that arrived
// over a transport link returns one flow-control credit to its sender:
// recycling is the cross-process analogue of freeing a channel slot.
func (h *localHandle) putBatch(b *batch) {
	if b.from.link != nil {
		b.from.link.sendCredit(creditMsg{gen: b.from.gen, op: b.from.op, inst: b.from.inst, credits: 1})
		b.from = recvOrigin{}
	}
	clear(b.msgs)
	b.msgs = b.msgs[:0]
	b.buf = b.buf[:0]
	h.batches.Put(b)
}

// deployment is one generation of running instances; a rescale tears
// one down and builds the next.
type deployment struct {
	gen         uint32
	start       chan struct{} // closed by start: the sources' gate
	started     bool
	stopSources chan struct{}
	wg          sync.WaitGroup // every instance goroutine
	insts       map[string][]*instance
	// first resolves when the deployment processes its first record —
	// the end of a rescale's downtime window. Always allocated (one
	// channel per deploy); cancelled at teardown so waiters never leak.
	first *firstRecord
}

// deploy builds channels and instances for this worker's share of g.
// Instances placed on other workers are skipped, edges into them go
// through the transport, and sources stripe the sequence space over the
// workers hosting them; sources stay gated until start.
func (h *localHandle) deploy(g *generation, _ traceCtx) ([]wireSpan, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	peers := make([]*link, g.workers)
	for i, addr := range g.peers {
		if i == g.worker || addr == "" {
			continue
		}
		l, err := h.tr.dialPeer(uint32(i), addr)
		if err != nil {
			return nil, err
		}
		peers[i] = l
	}
	for name, v := range g.seqs {
		if p := h.seqs[name]; p != nil {
			atomic.StoreInt64(p, v)
		}
	}
	h.epoch = g.epoch
	gr := h.pipe.graph
	dep := &deployment{
		gen:         g.gen,
		start:       make(chan struct{}),
		stopSources: make(chan struct{}),
		insts:       make(map[string][]*instance, gr.NumOperators()),
		first:       newFirstRecord(),
	}

	// Input queues and close-cascade bookkeeping: each non-source
	// operator's channels close once all of its upstream instances
	// have exited, so records drain fully before downstream workers
	// stop.
	chans := make(map[string][]chan *batch, gr.NumOperators())
	inWGs := make(map[string]*sync.WaitGroup, gr.NumOperators())
	// One router per keyed operator per deployment, shared between the
	// exchange and state repartitioning, so a key's records and its
	// state can never disagree on the owning instance. The table is the
	// coordinator's, identical on every worker — a table rebuilt from
	// this worker's partial state would route keys differently per
	// process.
	routers := make(map[string]*router)
	hosted := func(op string, k int) bool { return g.assign[op][k] == g.worker }
	// A receiver's channel also buffers the remote senders' credit
	// windows: the transport read loop must be able to deliver every
	// in-flight remote batch without blocking, so a slow consumer stalls
	// its senders through the credit gate, never the shared read loop.
	capacity := h.cfg.ChannelCapacity + remoteWindow(&h.cfg)*(g.workers-1)
	// Per downstream operator, the sender-side remote machinery: credit
	// gates toward remotely hosted instances and the links that carry
	// the close cascade's DONE frames.
	remotes := make(map[string][]*remoteDest)
	doneTo := make(map[string][]*link)
	for i := 0; i < gr.NumOperators(); i++ {
		op := gr.Operator(i)
		if op.Role == dataflow.RoleSource {
			continue
		}
		if spec := h.pipe.ops[op.Name]; spec.Keyed {
			routers[op.Name] = routerFromTable(g.tables[op.Name], g.par[op.Name])
		}
		cs := make([]chan *batch, g.par[op.Name])
		anyLocal := false
		var rds []*remoteDest
		seenPeer := make(map[int]bool)
		for k := range cs {
			w := g.assign[op.Name][k]
			if w == g.worker {
				cs[k] = make(chan *batch, capacity)
				anyLocal = true
				continue
			}
			if rds == nil {
				rds = make([]*remoteDest, len(cs))
			}
			tokens := make(chan struct{}, remoteWindow(&h.cfg))
			for t := 0; t < cap(tokens); t++ {
				tokens <- struct{}{}
			}
			rds[k] = &remoteDest{link: peers[w], opID: uint16(i), inst: uint16(k), tokens: tokens}
			if !seenPeer[w] {
				seenPeer[w] = true
				doneTo[op.Name] = append(doneTo[op.Name], peers[w])
			}
		}
		chans[op.Name] = cs
		remotes[op.Name] = rds
		if !anyLocal {
			continue // close cascade and input wiring live where the instances do
		}
		up := 0
		for _, u := range gr.Upstream(i) {
			up += g.par[gr.Operator(u).Name]
		}
		wg := new(sync.WaitGroup)
		wg.Add(up)
		inWGs[op.Name] = wg
		go func(wg *sync.WaitGroup, cs []chan *batch) {
			wg.Wait()
			for _, c := range cs {
				if c != nil {
					close(c)
				}
			}
		}(wg, cs)
	}

	for i := 0; i < gr.NumOperators(); i++ {
		op := gr.Operator(i)
		p := g.par[op.Name]
		var outs []outEdge
		for _, d := range gr.Downstream(i) {
			down := gr.Operator(d)
			spec := h.pipe.ops[down.Name]
			ae, _ := spec.Codec.(AppendEncoder)
			outs = append(outs, outEdge{
				op:        down.Name,
				keyed:     spec.Keyed,
				codec:     spec.Codec,
				appendEnc: ae,
				router:    routers[down.Name],
				chans:     chans[down.Name],
				done:      inWGs[down.Name],
				opID:      uint16(d),
				gen:       g.gen,
				remote:    remotes[down.Name],
				doneLinks: doneTo[down.Name],
			})
		}
		for k := 0; k < p; k++ {
			if !hosted(op.Name, k) {
				continue
			}
			// Each instance gets its own edge copies: the per-edge
			// round-robin cursor and the pending output batches are
			// worker-goroutine state; the cursor is seeded with the
			// instance index to spread streams across senders.
			myOuts := append([]outEdge(nil), outs...)
			for e := range myOuts {
				myOuts[e].rr = k
				myOuts[e].pend = make([]*batch, len(myOuts[e].chans))
			}
			in := &instance{
				job:   h,
				op:    op.Name,
				idx:   k,
				sink:  op.Role == dataflow.RoleSink,
				outs:  myOuts,
				first: dep.first,
			}
			if in.sink && h.obs != nil {
				in.latHist = h.obs.latHist(op.Name)
			}
			in.local.downWait = make([]time.Duration, len(myOuts))
			if op.Role == dataflow.RoleSource {
				// Sequence blocks are striped over the workers that
				// actually host an instance of this source — a worker
				// with no instances would own blocks nobody ever emits.
				// One hosting worker makes the striping the identity.
				hosts := hostingWorkers(g.assign[op.Name])
				rank := 0
				for r, w := range hosts {
					if w == g.worker {
						rank = r
					}
				}
				in.src = h.pipe.sources[op.Name]
				in.seq = h.seqs[op.Name]
				in.nsrc = p
				in.seqNW = len(hosts)
				in.seqWorker = rank
				in.seqBlock = h.cfg.SourceSeqBlock
				in.srcLimit = localSeqLimit(in.src.Limit, rank, len(hosts), h.cfg.SourceSeqBlock)
				in.startGate = dep.start
			} else {
				in.spec = h.pipe.ops[op.Name]
				in.in = chans[op.Name][k]
				if in.spec.Keyed {
					in.state = partitionState(g.states[op.Name], routers[op.Name], k)
				}
			}
			dep.insts[op.Name] = append(dep.insts[op.Name], in)
		}
	}

	if h.tr != nil {
		// Publish the receive table before any instance runs: DATA,
		// DONE and CREDIT frames for this generation may arrive the
		// moment the coordinator releases the start gates, and the
		// transport's read loops resolve everything through this one
		// atomic pointer.
		numOps := gr.NumOperators()
		rt := &recvTable{
			gen:     g.gen,
			job:     h,
			chans:   make([][]chan *batch, numOps),
			wgs:     make([]*sync.WaitGroup, numOps),
			credits: make([][]chan struct{}, numOps),
		}
		for i := 0; i < numOps; i++ {
			name := gr.Operator(i).Name
			rt.chans[i] = chans[name]
			rt.wgs[i] = inWGs[name]
			if rds := remotes[name]; rds != nil {
				pools := make([]chan struct{}, len(rds))
				for k, rd := range rds {
					if rd != nil {
						pools[k] = rd.tokens
					}
				}
				rt.credits[i] = pools
			}
		}
		h.tr.recv.Store(rt)
	}

	for _, list := range dep.insts {
		for _, in := range list {
			dep.wg.Add(1)
			go func(in *instance) {
				defer dep.wg.Done()
				switch {
				case in.src != nil:
					in.runSource(dep.stopSources)
				case in.spec.Window != nil:
					in.runWindowed()
				default:
					in.runOperator()
				}
			}(in)
		}
	}
	h.dep = dep
	return nil, nil
}

// partitionState selects the keys instance idx owns under the
// deployment's router.
func partitionState(all map[string]any, rt *router, idx int) map[string]any {
	out := make(map[string]any)
	for k, v := range all {
		if rt.owner(k) == idx {
			out[k] = v
		}
	}
	return out
}

// start releases the deployed generation's sources.
func (h *localHandle) start(gen uint32) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dep == nil || h.dep.gen != gen {
		return fmt.Errorf("streamrt: start for generation %d, none deployed", gen)
	}
	if !h.dep.started {
		h.dep.started = true
		close(h.dep.start)
	}
	return nil
}

// drain stops the sources and drains the generation (the close cascade
// guarantees every in-flight record is processed), then snapshots the
// keyed state per stateful operator. Instance goroutines have exited,
// so their state maps are safe to read; keys are disjoint across
// instances by the deployment's router.
func (h *localHandle) drain(traceCtx) (drained, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	dep := h.dep
	if dep == nil {
		return drained{}, nil
	}
	dep.first.cancel()
	close(dep.stopSources)
	dep.wg.Wait()
	h.dep = nil
	d := drained{states: make(map[string]map[string]any), seqs: make(map[string]int64, len(h.seqs))}
	for name, list := range dep.insts {
		if spec := h.pipe.ops[name]; spec == nil || !spec.Keyed {
			continue
		}
		merged := make(map[string]any)
		for _, in := range list {
			for k, v := range in.state {
				merged[k] = v
			}
		}
		d.states[name] = merged
	}
	for name, p := range h.seqs {
		d.seqs[name] = atomic.LoadInt64(p)
	}
	return d, nil
}

// collect takes every deployed instance's accumulator in wire form.
func (h *localHandle) collect() ([]wireAcc, []LinkStats, error) {
	var links []LinkStats
	if h.tr != nil {
		links = h.tr.linkSnapshots()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dep == nil {
		return nil, links, nil
	}
	var out []wireAcc
	for name, list := range h.dep.insts {
		_, isSrc := h.pipe.sources[name]
		for _, in := range list {
			s := in.acc.take()
			wa := wireAcc{
				Op:    name,
				Idx:   in.idx,
				IsSrc: isSrc,
				DurNanos: [5]int64{
					int64(s.dur.Deserialization), int64(s.dur.Processing), int64(s.dur.Serialization),
					int64(s.dur.WaitingInput), int64(s.dur.WaitingOutput),
				},
				Processed: s.processed,
				Pushed:    s.pushed,
				Lats:      s.lats,
			}
			for e := range in.outs {
				wa.DownOps = append(wa.DownOps, in.outs[e].op)
			}
			for _, w := range s.downWait {
				wa.DownWaitNanos = append(wa.DownWaitNanos, int64(w))
			}
			out = append(out, wa)
		}
	}
	return out, links, nil
}

func (h *localHandle) wait() (bool, error) {
	h.mu.Lock()
	dep := h.dep
	h.mu.Unlock()
	if dep == nil {
		return false, nil
	}
	dep.wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dep == dep, nil
}

func (h *localHandle) firstRecord(gen uint32) (int64, <-chan struct{}, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dep == nil || h.dep.gen != gen {
		return -1, nil, nil
	}
	return h.dep.first.value(), h.dep.first.ch, nil
}

func (h *localHandle) close() {}
