package streamrt

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"ds2/internal/controlloop"
	"ds2/internal/core"
	"ds2/internal/dataflow"
	"ds2/internal/metrics"
	"ds2/internal/service"
)

// Runtime adapts a live Job — in-process or distributed — to both
// control surfaces:
//
//   - controlloop.Runtime, so the standard Controller drives the job
//     in-process — Advance paces on the wall clock (the job's real
//     time), Apply performs the savepoint-and-restore rescale
//     synchronously and discards the polluted partial window (settle
//     semantics, like the Flink integration of §4.1).
//   - service.AttachedEngine, so the same job registers with a ds2d
//     scaling service and is driven through the ingestion/poll/ack
//     API instead — indistinguishable from any other remote job.
type Runtime struct {
	job *Job

	// Savepoint support (SavepointTo): the store service-requested
	// savepoints persist into, the name prefix, and a counter so each
	// request gets a distinct name.
	spStore  CheckpointStore
	spPrefix string
	spCount  atomic.Int64
}

// NewRuntime wraps a running Job.
func NewRuntime(j *Job) *Runtime { return &Runtime{job: j} }

// Advance blocks until the job has run d more seconds of wall-clock
// time, then collects the interval's observation.
func (r *Runtime) Advance(d float64) (controlloop.Observation, error) {
	iv, err := r.job.NextInterval(d)
	if err != nil {
		if errors.Is(err, ErrStopped) {
			return controlloop.Observation{}, controlloop.ErrStopped
		}
		return controlloop.Observation{}, err
	}
	return iv.Observation(), nil
}

// Apply deploys the action's configuration via the job's Rescale.
func (r *Runtime) Apply(act *core.Action) error {
	if err := r.job.Rescale(act.New); err != nil {
		if errors.Is(err, ErrStopped) {
			return controlloop.ErrStopped
		}
		return err
	}
	return nil
}

// Parallelism returns the deployed configuration.
func (r *Runtime) Parallelism() dataflow.Parallelism { return r.job.Parallelism() }

// NextReport implements service.AttachedEngine: one policy interval's
// instrumentation in the scaling service's wire format. A stopped job
// surfaces as controlloop.ErrStopped, which the attached driver treats
// as a clean end (it still fetches the service-side trace). The job's
// retained rescale timelines piggyback on every report; the service
// dedups by trace ID, so resending the full ring is idempotent and
// delivers completions of timelines first shipped in flight.
func (r *Runtime) NextReport(intervalSec float64) (service.Report, error) {
	iv, err := r.job.NextInterval(intervalSec)
	if err != nil {
		if errors.Is(err, ErrStopped) {
			return service.Report{}, controlloop.ErrStopped
		}
		return service.Report{}, err
	}
	rep := iv.Report()
	rep.Rescales = r.job.RescaleTraces()
	return rep, nil
}

// Rescale implements service.AttachedEngine: deploy and report what
// was actually deployed (always the target — the live runtime deploys
// exactly what it is asked). Like NextReport, a stopped job surfaces
// as controlloop.ErrStopped so the attached driver ends cleanly.
func (r *Runtime) Rescale(p dataflow.Parallelism) (dataflow.Parallelism, error) {
	if err := r.job.Rescale(p); err != nil {
		if errors.Is(err, ErrStopped) {
			return nil, controlloop.ErrStopped
		}
		return nil, err
	}
	return r.job.Parallelism(), nil
}

// SavepointTo equips the runtime to execute service-requested
// savepoints: each request drains the job, persists one savepoint
// named <prefix>-N into store, and restarts. Without it, savepoint
// requests from the service are answered with an error instead of a
// checkpoint. It returns the runtime for chaining.
func (r *Runtime) SavepointTo(store CheckpointStore, prefix string) *Runtime {
	if prefix == "" {
		prefix = "savepoint"
	}
	r.spStore = store
	r.spPrefix = prefix
	return r
}

// Savepoint implements service.SavepointEngine: cut one durable
// savepoint into the configured store and return where it landed (the
// file path for a DirStore, the store name otherwise). A stopped
// job surfaces as controlloop.ErrStopped so the attached driver
// ends cleanly.
func (r *Runtime) Savepoint() (string, error) {
	if r.spStore == nil {
		return "", errors.New("streamrt: runtime has no checkpoint store (use SavepointTo)")
	}
	name := fmt.Sprintf("%s-%d", r.spPrefix, r.spCount.Add(1))
	if err := r.job.Savepoint(r.spStore, name); err != nil {
		if errors.Is(err, ErrStopped) {
			return "", controlloop.ErrStopped
		}
		return "", err
	}
	if ds, ok := r.spStore.(*DirStore); ok {
		return filepath.Join(ds.Dir(), name), nil
	}
	return name, nil
}

// Attach registers the job with a ds2d scaling service and returns the
// engine-side driver: Run plays the report/poll/ack cycle until the
// service finishes the decision loop.
func Attach(c *service.Client, job *Job, spec service.JobSpec) *service.AttachedJob {
	return service.NewAttachedJob(c, NewRuntime(job), spec)
}

// Observation converts the interval for the in-process Controller.
// The snapshot builder is memoized so snapshot-blind autoscalers never
// pay the aggregation.
func (iv Interval) Observation() controlloop.Observation {
	obs := controlloop.Observation{
		Start:                iv.Start,
		End:                  iv.End,
		TargetRates:          iv.TargetRates,
		SourceObserved:       iv.SourceObserved,
		Backpressured:        iv.Backpressured,
		BackpressureFraction: iv.BackpressureFraction,
		Parallelism:          iv.Parallelism,
		Workers:              iv.Workers,
		Latencies:            iv.Latencies,
	}
	windows := iv.Windows
	obs.SnapshotFn = sync.OnceValues(func() (metrics.Snapshot, error) {
		return metrics.BuildSnapshot(iv.End, windows, iv.TargetRates)
	})
	return obs
}

// Report converts the interval into the scaling service's ingestion
// format. The server rebuilds the identical snapshot from it, which is
// what keeps in-process and service-driven decision loops in lockstep.
func (iv Interval) Report() service.Report {
	return service.Report{
		Start:                iv.Start,
		End:                  iv.End,
		Windows:              iv.Windows,
		TargetRates:          iv.TargetRates,
		SourceObserved:       iv.SourceObserved,
		Backpressured:        iv.Backpressured,
		BackpressureFraction: iv.BackpressureFraction,
		Parallelism:          iv.Parallelism,
		Workers:              iv.Workers,
		Latencies:            iv.Latencies,
	}
}
