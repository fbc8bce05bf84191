package engine

import (
	"sort"
	"strings"

	"alm/internal/metrics"
	"alm/internal/sim"
	"alm/internal/trace"
)

// jobMetrics is the job's instrumentation plane: a registry owned by the
// job plus pre-resolved handles for the hot paths, fed from the single
// trace emission point so runtime code needs no second bookkeeping path.
type jobMetrics struct {
	reg *metrics.Registry

	// eventCounters caches one counter handle per event kind so Emit-path
	// instrumentation costs a map hit, not a series-key render.
	eventCounters map[trace.Kind]*metrics.Counter
	// launchedAt tracks running attempts (by attempt id) for duration
	// histograms, fed from task-launched / task-finished events. A
	// retired attempt is marked retiredAt, not deleted: a delete leaves
	// a tombstone wherever the map's per-process hash seed put the key,
	// so the map's growth, and the bytes `make bench-alloc` pins, would
	// vary from run to run.
	launchedAt   map[string]sim.Time
	durationMap  *metrics.Histogram
	durationRed  *metrics.Histogram
	progressTick *metrics.Counter
	progressMap  *metrics.Gauge
	progressRed  *metrics.Gauge
}

// retiredAt marks a launchedAt entry whose attempt has ended; no event
// happens before time zero.
const retiredAt sim.Time = -1

func newJobMetrics() *jobMetrics {
	reg := metrics.NewRegistry()
	return &jobMetrics{
		reg:           reg,
		eventCounters: make(map[trace.Kind]*metrics.Counter),
		launchedAt:    make(map[string]sim.Time),
		durationMap:   reg.Histogram("alm_task_duration_seconds", nil, "kind", "map"),
		durationRed:   reg.Histogram("alm_task_duration_seconds", nil, "kind", "reduce"),
		progressTick:  reg.Counter("alm_progress_samples_total"),
		progressMap:   reg.Gauge("alm_job_progress", "phase", "map"),
		progressRed:   reg.Gauge("alm_job_progress", "phase", "reduce"),
	}
}

// Metrics returns the job's registry (never nil for a job built by
// NewJob; nil-safe to use either way).
func (j *Job) Metrics() *metrics.Registry {
	if j.met == nil {
		return nil
	}
	return j.met.reg
}

// MetricsSnapshot renders the registry's current state, with the
// cluster-wide series at the cluster's totals on a shared run.
func (j *Job) MetricsSnapshot() *metrics.Snapshot {
	snap := j.Metrics().Snapshot()
	if j.clusterMet != nil {
		snap.Merge(j.clusterMet.Snapshot())
	}
	return snap
}

// SetObserver attaches a streaming observer; call before Start.
func (j *Job) SetObserver(obs Observer) { j.obs = obs }

// observeEvent is the trace.Collector OnEmit hook: counts every event by
// kind, maintains attempt-duration histograms, and forwards to the
// observer. Runs inside the single-threaded event engine.
func (j *Job) observeEvent(e trace.Event) {
	m := j.met
	c, ok := m.eventCounters[e.Kind]
	if !ok {
		c = m.reg.Counter("alm_events_total", "kind", string(e.Kind))
		m.eventCounters[e.Kind] = c
	}
	c.Inc()
	switch e.Kind {
	case trace.KindTaskLaunched:
		m.launchedAt[e.Task] = e.At
	case trace.KindTaskFinished, trace.KindTaskFailed, trace.KindTaskKilled:
		if start, ok := m.launchedAt[e.Task]; ok && start != retiredAt {
			m.launchedAt[e.Task] = retiredAt
			if e.Kind == trace.KindTaskFinished {
				h := m.durationRed
				if strings.HasPrefix(e.Task, "m_") {
					h = m.durationMap
				}
				metrics.StartSpan(h, start).End(e.At)
			}
		}
	}
	if j.obs != nil {
		j.obs.OnEvent(e)
	}
}

// observeSample delivers one progress sample plus the metrics delta to
// the observer and keeps the live job gauges current.
func (j *Job) observeSample(now sim.Time) {
	m := j.met
	m.progressTick.Inc()
	m.progressMap.Set(j.mapPhaseFraction())
	m.progressRed.Set(j.reducePhaseFraction())
	if j.obs == nil {
		return
	}
	j.obs.OnProgress(ProgressSample{
		At:                   now,
		MapProgress:          j.mapPhaseFraction(),
		ReduceProgress:       j.reducePhaseFraction(),
		FailedReduceAttempts: j.result.ReduceAttemptFailures,
		FetchRetries:         j.result.FetchRetries,
	})
	if delta := m.reg.TakeDelta(); delta != nil {
		j.obs.OnMetrics(delta)
	}
}

// finalizeMetrics folds the run's terminal accounting into the registry:
// job outcome, failure tallies, MapReduce counters and event-engine
// load. Called once after the event engine stops.
func (j *Job) finalizeMetrics(eng *sim.Engine) {
	reg := j.Metrics()
	completed := 0.0
	if j.result.Completed {
		completed = 1
	}
	reg.Gauge("alm_job_completed").Set(completed)
	reg.Gauge("alm_job_duration_seconds").Set(j.result.Duration.Seconds())
	reg.Gauge("alm_job_map_phase_done_seconds").Set(j.result.MapPhaseDone.Seconds())
	reg.Counter("alm_task_attempt_failures_total", "kind", "map").Add(float64(j.result.MapAttemptFailures))
	reg.Counter("alm_task_attempt_failures_total", "kind", "reduce").Add(float64(j.result.ReduceAttemptFailures))
	reg.Counter("alm_infected_reduce_failures_total").Add(float64(j.result.AdditionalReduceFailures))
	reg.Counter("alm_fetch_retries_total").Add(float64(j.result.FetchRetries))
	reg.Counter("alm_wait_advisories_total").Add(float64(j.result.WaitAdvisories))
	names := make([]string, 0, len(j.result.Counters))
	for name := range j.result.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		reg.Counter("alm_mr_counter", "name", name).Add(float64(j.result.Counters[name]))
	}
	reg.Gauge("alm_sim_events_processed").Set(float64(eng.Processed()))
	reg.Gauge("alm_sim_event_queue_max").Set(float64(eng.MaxQueueLen()))
	if j.obs != nil {
		if delta := reg.TakeDelta(); delta != nil {
			j.obs.OnMetrics(delta)
		}
	}
}
