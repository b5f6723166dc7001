package main

import (
	"fmt"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/nexmark"
	"ds2/internal/obs"
	"ds2/internal/streamrt"
)

// q5 windows are long relative to their slide, so every auction holds
// about q5Panes panes and fires every slide: the window insert and
// fire path, and the keyed state a rescale snapshots, do real work.
const (
	q5Size  = 5 * time.Second
	q5Slide = 50 * time.Millisecond
	q5Panes = int64(q5Size / q5Slide)
	// q5Steady is how long each round holds latencyRate before the
	// rescale script, for the CPU cost per record.
	q5Steady = 300 * time.Millisecond
	// q5Gap separates consecutive rescales, so records flow between
	// them.
	q5Gap = 40 * time.Millisecond
	// q5FlatRecords is each round's flat-out drain after the restore.
	q5FlatRecords = 1_000_000
)

// q5Script is the rescale script of q5-window, from parallelism 1.
var q5Script = []int{2, 3, 2, 1, 2, 3, 2, 1}

func q5Par(window int) dataflow.Parallelism {
	return dataflow.Parallelism{nexmark.SrcBids: 1, "q5-window": window, "q5-sink": 1}
}

func q5Config(seed int64, rate float64, limit int64) nexmark.LiveQueryConfig {
	cfg := liveConfig(seed, rate, limit, false)
	cfg.WindowSize, cfg.WindowSlide = q5Size, q5Slide
	return cfg
}

// runQ5Rescale is the reconfiguration path: window inserts and fires,
// keyed-state snapshot and repartition, and savepoint encode, persist
// and load. Each round runs q5 at latencyRate, rescales q5-window
// through q5Script, cuts a savepoint into a directory store, stops the
// job, restores the savepoint at another parallelism and drains a
// bounded flat-out remainder. Its latency figures are the Rescale
// calls': q5's fired windows carry no source stamp, so its sink takes
// no record latency samples.
func runQ5Rescale(env *runEnv, res *results) error {
	setups, err := timeSetups(func() (*livePhase, error) {
		return startJob(env, "setup", "q5", q5Config(env.seed, latencyRate, 0), q5Par(1))
	})
	if err != nil {
		return err
	}
	dir, err := streamrt.NewDirStore(env.dir)
	if err != nil {
		return err
	}
	store := &timingStore{CheckpointStore: dir}
	figs := figures{}
	var rescales, savepoints, restores []time.Duration
	var flatIvs []streamrt.Interval
	var flatSpan float64
	n := max(3, rounds(env)/2)
	for r := 0; r < n; r++ {
		env.probe.sample()
		// Enough records for the paced part with a wide margin, plus
		// the flat-out drain.
		paced := q5Steady + time.Duration(len(q5Script))*q5Gap + time.Second
		limit := int64(latencyRate*paced.Seconds()) + q5FlatRecords
		cfg := q5Config(env.seed, latencyRate, limit)
		p, err := startJob(env, "q5-200k", "q5", cfg, q5Par(1))
		if err != nil {
			return err
		}
		setups = append(setups, p.setup())

		// CPU per record at the offered load, between two window cuts.
		time.Sleep(collectEvery)
		if _, err := p.collect(); err != nil {
			return err
		}
		var probe *allocProbe
		if env.tr != nil && r == 0 {
			probe = startAllocProbe()
		}
		cpu0 := cpuTime()
		time.Sleep(q5Steady)
		iv, err := p.collect()
		if err != nil {
			return err
		}
		recs := pushedBy(iv, nexmark.SrcBids)
		if recs <= 0 {
			return fmt.Errorf("q5: no records in the steady window")
		}
		figs.add("cpu_ns_per_rec", float64(cpuTime()-cpu0)/float64(recs))
		if probe != nil {
			probe.report(res, recs)
		}

		for _, w := range q5Script {
			d, err := p.rescale(q5Par(w))
			res.op(1, err)
			if err != nil {
				return err
			}
			rescales = append(rescales, d)
			time.Sleep(q5Gap)
		}
		if r == 0 {
			reportRescaleTraces(res, p.job.RescaleTraces())
		}

		name := fmt.Sprintf("q5-round-%d", r)
		t0 := time.Now()
		env.tr.do("streamrt.Job.Savepoint", p.span.id, func(uint64) { err = p.job.Savepoint(store, name) })
		res.op(1, err)
		if err != nil {
			return err
		}
		savepoints = append(savepoints, time.Since(t0))
		p.stop() // what ran after the savepoint is discarded, as after a crash

		// Restore at another parallelism with the source flat out.
		flat := q5Config(env.seed, flatOut, limit)
		w, err := nexmark.LiveQuery("q5", flat)
		if err != nil {
			return err
		}
		b := newPhase(env, "q5-restore", flat)
		env.tr.do("streamrt.NewJobFromSavepoint", b.span.id, func(uint64) {
			b.job, err = streamrt.NewJobFromSavepoint(w.Pipeline, q5Par(2), streamrt.Config{Metrics: obs.NewRegistry(), LatencySampleEvery: sampleEvery(flat)}, store, name)
		})
		res.op(1, err)
		if err != nil {
			return err
		}
		restores = append(restores, time.Since(b.t0))
		b.eng, b.first, b.cpu, b.lastCut = b.job, time.Now(), cpuTime(), time.Now()
		if err := b.drain(); err != nil {
			return err
		}
		emitted := b.pushed()
		if emitted < q5FlatRecords/2 {
			return fmt.Errorf("q5: only %d records left for the flat-out drain", emitted)
		}
		b.limit = emitted
		figs.add("throughput_rps", b.throughput())
		flatIvs = append(flatIvs, b.ivs...)
		flatSpan += b.spanSeconds()
		states := b.stop()
		var cerr error
		env.tr.do("nexmark.LiveExpectedBidCounts", 0, func(uint64) {
			cerr = checkQ5(states, nexmark.LiveExpectedBidCounts(cfg, limit), q5Panes)
		})
		res.op(limit, cerr)
	}
	figs.report(env, res)
	lat, err := summarize(durationSamples(rescales), 0.99)
	if err != nil {
		return fmt.Errorf("q5 rescale latency: %w", err)
	}
	res.set("latency_p50_ms", lat.P50)
	res.set("latency_tail_ms", lat.Tail)
	env.logf("q5 rescale calls: p50 %.3f ms, p%.4g %.3f ms over %d calls", lat.P50, lat.TailLevel*100, lat.Tail, lat.N)
	res.set("streamrt.rescale.call_ms", lat.P50)
	res.set("streamrt.checkpoint.savepoint_ms", medianDuration(savepoints))
	res.set("streamrt.checkpoint.restore_ms", medianDuration(restores))
	res.set("streamrt.checkpoint.store_save_ms", medianDuration(store.saves))
	res.set("streamrt.checkpoint.store_load_ms", medianDuration(store.lds))
	res.set("streamrt.checkpoint.bytes", median(store.bytes))
	reportSplit(res, flatIvs, flatSpan)
	res.set("setup_s", medianDuration(setups)/1e3)
	return nil
}

// pushed is how many source records the phase's windows counted.
func (p *livePhase) pushed() int64 {
	var n int64
	for _, iv := range p.ivs {
		n += pushedBy(iv, nexmark.SrcBids)
	}
	return n
}
