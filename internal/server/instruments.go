package server

import (
	"errors"
	"time"

	"dualradio/internal/harness"
	"dualradio/internal/metrics"
	"dualradio/internal/scenario"
)

// srvMetrics is the server's instrument set on its metrics registry: the
// counters and histograms every layer reports into. The gauges are
// refreshed at scrape time (see registerBaseGauges).
type srvMetrics struct {
	cacheHits   metrics.Counter
	cacheMisses metrics.Counter
	storeHits   metrics.Counter
	storeMisses metrics.Counter

	admissions metrics.CounterVec // kind (job|sweep), outcome
	attempts   metrics.CounterVec // outcome
	trials     metrics.Counter

	queueWait     metrics.HistogramVec // algorithm
	jobDuration   metrics.HistogramVec // algorithm, preset
	trialDuration metrics.HistogramVec // algorithm
	journalAppend metrics.Histogram
	storePut      metrics.Histogram
	storeGC       metrics.Histogram
}

// ioBuckets shapes the journal/store latency histograms: 10µs to ~2.6s in
// ×4 steps — file appends and renames live far below the trial-latency
// range metrics.LatencyBuckets covers.
var ioBuckets = metrics.ExpBuckets(1e-5, 4, 10)

func newServerInstruments(r *metrics.Registry) *srvMetrics {
	return &srvMetrics{
		cacheHits:   r.Counter("radiod_cache_hits_total", "Result lookups served by the in-memory LRU."),
		cacheMisses: r.Counter("radiod_cache_misses_total", "Result lookups that missed the in-memory LRU."),
		storeHits:   r.Counter("radiod_store_hits_total", "LRU misses served by the persistent store."),
		storeMisses: r.Counter("radiod_store_misses_total", "Result lookups that missed both tiers."),

		admissions: r.CounterVec("radiod_admissions_total", "Submission admission outcomes, by kind (job|sweep).", "kind", "outcome"),
		attempts:   r.CounterVec("radiod_job_attempts_total", "Job attempt outcomes (done, cached, failed, deadline, cancelled, retry).", "outcome"),
		trials:     r.Counter("radiod_trials_completed_total", "Trials completed by this process's local pool."),

		queueWait:     r.HistogramVec("radiod_queue_wait_seconds", "Time from admission (or requeue) to execution start.", metrics.LatencyBuckets, "algorithm"),
		jobDuration:   r.HistogramVec("radiod_job_duration_seconds", "Submission-to-done wallclock of completed, non-cached jobs.", metrics.LatencyBuckets, "algorithm", "preset"),
		trialDuration: r.HistogramVec("radiod_trial_duration_seconds", "Per-trial wallclock in the local pool.", metrics.LatencyBuckets, "algorithm"),
		journalAppend: r.Histogram("radiod_journal_append_seconds", "Journal record append latency.", ioBuckets),
		storePut:      r.Histogram("radiod_store_put_seconds", "Persistent store write latency (including write-once no-ops).", ioBuckets),
		storeGC:       r.Histogram("radiod_store_gc_seconds", "Persistent store byte-cap GC pass latency.", ioBuckets),
	}
}

// admit counts one admission decision for kind ("job" or "sweep"),
// mapping the error to its outcome label. The "closed" outcome is counted
// at its call sites (a plain errors.New, not a sentinel).
func (m *srvMetrics) admit(kind string, err error) {
	outcome := "accepted"
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		outcome = "queue_full"
	case errors.Is(err, ErrOverBudget):
		outcome = "over_budget"
	default:
		outcome = "invalid"
	}
	m.admissions.With(kind, outcome).Inc()
}

// presetLabel is the preset dimension of the job-duration histogram: the
// spec's cosmetic name when set (presets always name themselves), "custom"
// otherwise. Arbitrary user-supplied names are bounded by the registry's
// series cap.
func presetLabel(spec scenario.Spec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return "custom"
}

// registerBaseGauges registers the server's gauges plus the registry's own
// dropped-series gauge. Values derived from live state are refreshed by a
// collect hook at scrape time; fixed configuration is set once. Counts
// that a counter already carries have no gauge: retries are
// radiod_job_attempts_total{outcome="retry"}, and the fleet's lease,
// completion, failure and redispatch totals are sums of
// radiod_fleet_worker_*_total.
func (s *Server) registerBaseGauges() {
	r := s.metrics
	jobs := r.Gauge("radiod_jobs", "Registered jobs (live plus retained terminal): every job resident in memory, since a sweep keeps only a record per finished child.")
	sweeps := r.Gauge("radiod_sweeps", "Registered sweeps.")
	queued := r.Gauge("radiod_queued", "Jobs waiting in the queue.")
	cacheLen := r.Gauge("radiod_cache_len", "Resident result-cache entries.")
	pendingCost := r.Gauge("radiod_pending_cost", "Admission-cost estimate of queued plus running jobs.")
	calibJobs := r.Gauge("radiod_calibration_jobs", "Completed non-cached runs feeding the cost calibration.")
	nsPerUnit := r.Gauge("radiod_ns_per_cost_unit", "Measured nanoseconds per admission cost unit.")
	fleetLive := r.Gauge("radiod_fleet_workers_live", "Live fleet workers.")
	fleetDead := r.Gauge("radiod_fleet_workers_dead", "Fleet workers declared dead.")
	fleetActive := r.Gauge("radiod_fleet_leases_active", "Outstanding fleet leases.")
	fleetExpired := r.Gauge("radiod_fleet_leases_expired", "Leases expired by TTL.")
	fleetAdopted := r.Gauge("radiod_fleet_adopted", "Late results adopted from void leases.")

	r.Gauge("radiod_queue_depth", "Queue capacity.").Set(float64(s.cfg.QueueDepth))
	r.Gauge("radiod_workers", "Local worker-pool size.").Set(float64(s.cfg.Workers))
	r.Gauge("radiod_cache_cap", "Result-cache capacity.").Set(float64(s.cfg.CacheSize))
	r.Gauge("radiod_max_pending_cost", "Admission cost budget.").Set(float64(s.cfg.MaxPendingCost))
	r.GaugeFunc("radiod_metrics_dropped_series", "Instrument acquisitions collapsed onto overflow series by the cardinality cap.",
		func() float64 { return float64(r.DroppedSeries()) })
	r.GaugeFunc("radiod_instance_cache_bytes", "Bytes of network instances resident in the process-wide instance memo (at most its fixed budget).",
		func() float64 { return float64(harness.InstanceCache().Bytes) })
	r.GaugeFunc("radiod_instance_cache_entries", "Network instances resident in the process-wide instance memo, built or building.",
		func() float64 { return float64(harness.InstanceCache().Entries) })

	r.OnCollect(func() {
		s.mu.Lock()
		jobsN, sweepsN := len(s.jobs), len(s.sweeps)
		s.mu.Unlock()
		jobs.Set(float64(jobsN))
		sweeps.Set(float64(sweepsN))
		queued.Set(float64(len(s.queue)))
		cacheLen.Set(float64(s.results.Len()))
		pendingCost.Set(float64(s.pending.Load()))
		cj, ns := s.Calibration()
		calibJobs.Set(float64(cj))
		nsPerUnit.Set(ns)
		fc := s.fleet.Snapshot().Counters
		fleetLive.Set(float64(fc.WorkersLive))
		fleetDead.Set(float64(fc.WorkersDead))
		fleetActive.Set(float64(fc.LeasesActive))
		fleetExpired.Set(float64(fc.LeasesExpired))
		fleetAdopted.Set(float64(fc.Adopted))
	})
}

// registerStoreGauges exposes the persistent store's gauges (DataDir
// servers only, matching the historical conditional emission) and routes
// its put/gc latency observations into the histograms.
func (s *Server) registerStoreGauges() {
	r := s.metrics
	r.GaugeFunc("radiod_store_len", "Resident persistent-store entries.",
		func() float64 { return float64(s.store.Len()) })
	r.GaugeFunc("radiod_store_bytes", "Resident persistent-store payload bytes.",
		func() float64 { return float64(s.store.Bytes()) })
	r.GaugeFunc("radiod_store_errors", "Best-effort persistence failures.",
		func() float64 { return float64(s.storeErrs.Load()) })
	s.store.SetObserver(func(op string, d time.Duration) {
		switch op {
		case "put":
			s.srvm.storePut.Observe(d.Seconds())
		case "gc":
			s.srvm.storeGC.Observe(d.Seconds())
		}
	})
}

// registerJournalGauges exposes the journal gauges. Called after
// replayJournal so s.journal is set and the replay gauges are final.
func (s *Server) registerJournalGauges() {
	r := s.metrics
	r.GaugeFunc("radiod_journal_appends", "Records appended to the current journal generation.",
		func() float64 { return float64(s.journal.Appends()) })
	r.GaugeFunc("radiod_journal_errors", "Journal write/parse failures.",
		func() float64 { return float64(s.journalErrs.Load()) })
	r.GaugeFunc("radiod_replayed_jobs", "Standalone jobs re-admitted by crash replay.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.replayedJobs) })
	r.GaugeFunc("radiod_replayed_sweeps", "Sweeps resumed by crash replay.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.replayedSweeps) })
	r.GaugeFunc("radiod_replay_dropped", "Journal entries dropped during replay.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.replayDropped) })
}
