package main

import (
	"ds2/internal/dataflow"
	"ds2/internal/nexmark"
	"ds2/internal/streamrt"
)

// fidelityRate is q1-steady's rate-fidelity offered load: well under
// the pipeline's flat-out capacity, so a source that cannot hold it is
// the source's own pacing limit.
const fidelityRate = 1_000_000

// q1MaxLate bounds how far behind its schedule q1-steady's source may
// fall over a run's latency jobs. On a 2-vCPU VM it ran 0.1–1.5% behind
// on a quiet host and up to 4.1% on a busy one.
const q1MaxLate = 0.08

// q1Par is the single-process q1 deployment.
var q1Par = dataflow.Parallelism{nexmark.SrcBids: 1, "q1-map": 1, "q1-sink": 1}

// runQ1Steady is the stateless data path: codec, batch fill and flush,
// router, channel handoff and operator step, with no windows, links or
// rescales. Each round runs two bounded jobs: an open loop at
// latencyRate for latency and CPU cost, and a flat-out job for
// capacity. One more job offers fidelityRate for rate fidelity.
func runQ1Steady(env *runEnv, res *results) error {
	setups, err := timeSetups(func() (*livePhase, error) {
		return startJob(env, "setup", "q1", liveConfig(env.seed, latencyRate, 0, false), q1Par)
	})
	if err != nil {
		return err
	}
	figs := figures{}
	var lag lagTally
	var flatIvs []streamrt.Interval
	var flatSpan float64
	n := rounds(env)
	for r := 0; r < n; r++ {
		env.probe.sample()
		limit := int64(latencyRate * env.share(0.45).Seconds() / float64(n))
		p, err := startJob(env, "q1-200k", "q1", liveConfig(env.seed, latencyRate, limit, false), q1Par)
		if err != nil {
			return err
		}
		setups = append(setups, p.setup())
		var probe *allocProbe
		if env.tr != nil && r == 0 {
			probe = startAllocProbe()
		}
		if err := p.drain(); err != nil {
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
		figs.add("streamrt.bids.lag_records", p.addLag(&lag, latencyRate))

		limit = int64(q1FlatOutRate * env.share(0.25).Seconds() / float64(n))
		p, err = startJob(env, "q1-flat", "q1", liveConfig(env.seed, flatOut, limit, false), q1Par)
		if err != nil {
			return err
		}
		setups = append(setups, p.setup())
		if err := p.drain(); err != nil {
			return err
		}
		flatIvs = append(flatIvs, p.ivs...)
		flatSpan += p.spanSeconds()
		checkQ1Phase(env, res, p, p.stop(), limit)
		figs.add("throughput_rps", p.throughput())
	}

	limit := int64(fidelityRate * env.share(0.03).Seconds())
	p, err := startJob(env, "q1-1m", "q1", liveConfig(env.seed, fidelityRate, limit, false), q1Par)
	if err != nil {
		return err
	}
	setups = append(setups, p.setup())
	if err := p.drain(); err != nil {
		return err
	}
	achieved := p.throughput()
	checkQ1Phase(env, res, p, p.stop(), limit)
	res.set("streamrt.bids.achieved_rps", achieved)
	env.logf("q1-1m: achieved %.0f rec/s of %d offered", achieved, fidelityRate)

	lag.check(res, q1MaxLate)
	figs.report(env, res)
	reportSplit(res, flatIvs, flatSpan)
	res.set("setup_s", medianDuration(setups)/1e3)
	if env.tr != nil {
		reportCodec(env, res)
	}
	return nil
}

// q1FlatOutRate sizes q1's capacity phase: about its flat-out rate on
// a 2-CPU host, so the phase lasts about its budget share there.
const q1FlatOutRate = 4_000_000
