package main

import (
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/nexmark"
	"ds2/internal/streamrt"
)

const (
	// distWorkers is how many in-process workers the q1-dist cluster
	// spans, each with its own loopback TCP listener.
	distWorkers = 2
	// distFlatOutRate sizes q1-dist's capacity jobs like q1FlatOutRate.
	distFlatOutRate = 2_500_000
	// distLatencyRate is q1-dist's latency load. At latencyRate the
	// source of a 2-vCPU cluster ran 5–21% behind its schedule, so the
	// latency phase would not measure the load it claims.
	distLatencyRate = 100_000
	// distMaxLate bounds how far behind its schedule q1-dist's source
	// may fall over a run's latency jobs. On a 2-vCPU VM it ran 1.3–4.7%
	// behind on a quiet host and up to 8.5% on a busy one.
	distMaxLate = 0.15
)

// distPar spreads q1 over both workers; sink parallelism varies in the
// rescale script so keyed state crosses workers.
func distPar(sink int) dataflow.Parallelism {
	return dataflow.Parallelism{nexmark.SrcBids: 1, "q1-map": 2, "q1-sink": sink}
}

// distScript rescales q1-sink 2→3→2.
var distScript = []int{3, 2}

// runQ1Dist is q1 over the framed transport: frame write and read,
// credit flow control, and the cluster's rescale RPCs carry the cost.
// Each round runs three bounded clusters: an open loop at
// distLatencyRate for latency and CPU cost, one at latencyRate through
// the rescale script, and a flat-out one for capacity. Comparing it
// with q1-steady isolates the transport.
func runQ1Dist(env *runEnv, res *results) error {
	start := func(name string, rate float64, limit int64) (*livePhase, error) {
		return startCluster(env, name, "q1", liveConfig(env.seed, rate, limit, true), distPar(2), distWorkers)
	}
	setups, err := timeSetups(func() (*livePhase, error) { return start("setup", latencyRate, 0) })
	if err != nil {
		return err
	}
	figs := figures{}
	var lag lagTally
	var rescales []time.Duration
	var flatIvs []streamrt.Interval
	var links []streamrt.LinkStats
	var flatSpan float64
	n := max(3, rounds(env)/2)
	for r := 0; r < n; r++ {
		env.probe.sample()
		limit := int64(distLatencyRate * env.share(0.25).Seconds() / float64(n))
		p, err := start("dist-100k", distLatencyRate, limit)
		if err != nil {
			return err
		}
		setups = append(setups, p.setup())
		var probe *allocProbe
		if env.tr != nil && r == 0 {
			probe = startAllocProbe()
		}
		if err := p.drain(); err != nil {
			p.close()
			return err
		}
		if probe != nil {
			probe.report(res, limit)
		}
		checkQ1Phase(env, res, p, p.stop(), limit)
		if err := p.latencyFigures(figs); err != nil {
			return err
		}
		figs.add("cpu_ns_per_rec", p.cpuPerRecord())
		figs.add("streamrt.bids.lag_records", p.addLag(&lag, distLatencyRate))

		// Rescale script at the offered load.
		limit = int64(latencyRate * distRescaleSpan.Seconds())
		if p, err = start("dist-rescale", latencyRate, limit); err != nil {
			return err
		}
		setups = append(setups, p.setup())
		for _, sink := range distScript {
			time.Sleep(distRescaleSpan / time.Duration(len(distScript)+2))
			d, err := p.rescale(distPar(sink))
			res.op(1, err)
			if err != nil {
				p.close()
				return err
			}
			rescales = append(rescales, d)
		}
		if err := p.drain(); err != nil {
			p.close()
			return err
		}
		if r == 0 {
			reportRescaleTraces(res, p.cluster.RescaleTraces())
		}
		checkQ1Phase(env, res, p, p.stop(), limit)

		limit = int64(distFlatOutRate * env.share(0.25).Seconds() / float64(n))
		if p, err = start("dist-flat", flatOut, limit); err != nil {
			return err
		}
		setups = append(setups, p.setup())
		if err := p.drain(); err != nil {
			p.close()
			return err
		}
		flatIvs = append(flatIvs, p.ivs...)
		flatSpan += p.spanSeconds()
		links = append(links, p.cluster.LinkTotals()...)
		checkQ1Phase(env, res, p, p.stop(), limit)
		figs.add("throughput_rps", p.throughput())
	}
	lag.check(res, distMaxLate)
	figs.report(env, res)
	res.set("streamrt.rescale.call_ms", medianDuration(rescales))
	env.logf("q1-dist rescale calls (ms): %v", rescales)
	reportSplit(res, flatIvs, flatSpan)
	reportLinks(res, links, flatSpan)
	res.set("setup_s", medianDuration(setups)/1e3)
	if env.tr != nil {
		reportCodec(env, res)
	}
	return nil
}

// distRescaleSpan is how long each round's rescale cluster runs at the
// offered load.
const distRescaleSpan = 300 * time.Millisecond
