// Package server exposes the scenario engine as a long-running simulation
// service: an HTTP JSON API over a bounded job queue and a worker pool that
// fans trials through the harness scheduler, with per-spec result caching
// keyed by the canonical spec hash, an optional persistent result store
// that survives restarts, parameter-sweep batch submission, and cost-aware
// admission so oversized workloads are rejected instead of wedging the
// queue.
//
// The service is crash-safe: with a DataDir every admission and terminal
// transition is journaled (see journal.go), so a killed daemon re-admits
// its incomplete jobs and resumes half-finished sweeps on restart.
// Transient failures retry with jittered exponential backoff, specs can
// carry a timeout_ms deadline, a panicking trial fails its job instead of
// the process, and the faultinject package drives all of it in chaos runs.
//
// API (see DESIGN.md for curl examples):
//
//	POST   /v1/jobs               submit a spec ({"preset": "name"} or a spec object)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status + result when done
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /v1/jobs/{id}/events   NDJSON progress stream (follows until terminal)
//	POST   /v1/sweeps             submit a parameter sweep (base spec + axes)
//	GET    /v1/sweeps             list sweeps
//	GET    /v1/sweeps/{id}        sweep rollup: per-child status counts + children
//	DELETE /v1/sweeps/{id}        cancel every non-terminal child
//	GET    /v1/sweeps/{id}/events NDJSON child-completion stream
//	GET    /v1/sweeps/{id}/report pivot report (metric, rows, cols, format=csv|json|table, partial=1)
//	GET    /v1/presets            named preset specs
//	GET    /healthz               liveness + spec version + active fault rules
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dualradio/internal/faultinject"
	"dualradio/internal/fleet"
	"dualradio/internal/journal"
	"dualradio/internal/memo"
	"dualradio/internal/metrics"
	"dualradio/internal/scenario"
	"dualradio/internal/store"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of jobs run concurrently by the local pool
	// (0 = GOMAXPROCS; -1 = none, for a coordinator that only dispatches
	// to fleet workers).
	Workers int
	// QueueDepth bounds the backlog of queued jobs; submissions beyond it
	// are rejected with 503 (default 64).
	QueueDepth int
	// CacheSize bounds the result cache, keyed by canonical spec hash and
	// evicted least-recently-used (default 128).
	CacheSize int
	// TrialWorkers fans each job's trials across this many goroutines
	// (default 1: trial-level parallelism competes with job-level
	// parallelism for the same cores, so it is opt-in).
	TrialWorkers int
	// History bounds the job registry: once more than this many terminal
	// jobs are retained, the oldest are pruned (default 512). Pruned jobs
	// return 404; their results live on in the spec-hash cache and the
	// persistent store. Sweeps are bounded the same way.
	History int
	// DataDir, when non-empty, persists every completed result as a
	// per-spec-hash file under this directory and consults it on cache
	// misses, so identical specs survive daemon restarts without
	// re-simulation.
	DataDir string
	// StoreMaxBytes caps the persistent store's total size: after every
	// write, the oldest result files (by modification time) are evicted
	// until the store fits (0 = unbounded, the historical behavior).
	StoreMaxBytes int64
	// MaxPendingCost bounds the admitted-but-unfinished work, measured by
	// the analytic cost estimate n·trials·schedule-rounds summed over
	// queued and running jobs (default 1<<32 round-process units).
	// Submissions that would exceed it — huge single jobs or huge sweeps —
	// are rejected with 429 instead of wedging the queue for hours.
	MaxPendingCost int64
	// MaxRetries caps automatic re-runs of a job after a transient failure
	// (an error marked retryable per scenario.IsTransient). Default 3;
	// negative disables retries entirely.
	MaxRetries int
	// RetryBackoff delays the first retry; each further retry doubles it,
	// capped at RetryMaxBackoff, with up to 50% added jitter (defaults
	// 250ms and 5s).
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// Fault, when non-nil, injects deterministic faults at the service's
	// fault points — trial execution and store writes — for chaos testing.
	// Production servers leave it nil.
	Fault *faultinject.Injector
	// Fleet tunes the embedded fleet coordinator (heartbeat cadence, death
	// timeout, lease TTL). The coordinator is always mounted; with no
	// registered workers it is inert and the service behaves exactly like
	// a single node.
	Fleet fleet.Config
}

func (c Config) withDefaults() Config {
	if c.Workers < 0 {
		c.Workers = 0 // coordinator-only: fleet workers drain the queue
	} else if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.TrialWorkers <= 0 {
		c.TrialWorkers = 1
	}
	if c.History <= 0 {
		c.History = 512
	}
	if c.MaxPendingCost <= 0 {
		c.MaxPendingCost = 1 << 32
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.RetryMaxBackoff <= 0 {
		c.RetryMaxBackoff = 5 * time.Second
	}
	return c
}

// ErrQueueFull rejects submissions when the backlog is at QueueDepth.
var ErrQueueFull = errors.New("server: job queue full")

// ErrOverBudget rejects submissions whose cost estimate would push the
// pending workload past MaxPendingCost.
var ErrOverBudget = errors.New("server: admission cost budget exceeded")

// Server is the simulation service. It implements http.Handler; construct
// with New and stop with Close.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	ctx     context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	queue   chan *Job
	results *memo.LRU[string, *scenario.Result]
	store   *store.Store // nil without DataDir
	fleet   *fleet.Coordinator
	metrics *metrics.Registry
	srvm    *srvMetrics

	pending     atomic.Int64 // cost estimate of queued + running jobs
	storeErrs   atomic.Int64 // persistence failures (best-effort writes)
	journalErrs atomic.Int64 // journal write/parse failures (best-effort)

	journal *journal.Journal // nil without DataDir

	retryMu     sync.Mutex
	retryTimers map[*Job]*time.Timer // backed-off jobs awaiting requeue

	// calib tracks measured wallclock per admission cost unit over
	// completed (non-cached) jobs, so the analytic n·trials·rounds cost
	// model can be sanity-checked against reality via /metrics.
	calibMu    sync.Mutex
	calibJobs  int
	calibNanos float64 // total measured run wallclock
	calibCost  float64 // total admission cost of those runs

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string // submission order, for listing and oldest-first pruning
	sweeps     map[string]*Sweep
	sweepOrder []string
	nextID     int
	nextSweep  int
	closed     bool

	// Journal-replay state (under mu). replaying switches startJobLocked to
	// blocking queue sends and disables budget rejection — every replayed
	// job was admitted before the crash, so recovery must not re-litigate
	// admission. The gauges feed /metrics.
	replaying      bool
	replayedJobs   int
	replayedSweeps int
	replayDropped  int
}

// New starts a server: its worker pool runs until Close. With a DataDir it
// opens (creating if absent) the persistent result store first, then
// replays the job journal: every job and sweep the previous process
// accepted but did not finish is re-admitted under its original id, with
// already-stored child results served from the store as cache hits.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var st *store.Store
	if cfg.DataDir != "" {
		var err error
		if st, err = store.Open(cfg.DataDir); err != nil {
			return nil, err
		}
		st.SetMaxBytes(cfg.StoreMaxBytes)
		if cfg.Fault != nil {
			st.SetPutHook(cfg.Fault.StorePut)
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		ctx:         ctx,
		stop:        stop,
		queue:       make(chan *Job, cfg.QueueDepth),
		results:     memo.NewLRU[string, *scenario.Result](cfg.CacheSize),
		store:       st,
		retryTimers: make(map[*Job]*time.Timer),
		jobs:        make(map[string]*Job),
		sweeps:      make(map[string]*Sweep),
		metrics:     metrics.NewRegistry(),
	}
	s.fleet = fleet.New(fleetBackend{s}, cfg.Fleet)
	// Instrument everything before any traffic: srvm before the journal can
	// append, gauges and fleet series before the routes can be scraped.
	s.srvm = newServerInstruments(s.metrics)
	s.registerBaseGauges()
	if st != nil {
		s.registerStoreGauges()
	}
	s.fleet.Instrument(s.metrics)
	s.routes()
	s.fleet.Start(ctx)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.DataDir != "" {
		if err := s.replayJournal(); err != nil {
			s.Close()
			return nil, err
		}
		s.registerJournalGauges()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the worker pool: running jobs are cancelled via their
// contexts, queued jobs are marked cancelled, remotely leased jobs are
// abandoned (requeued, then cancelled through the closed-server path),
// and Close blocks until every worker has exited. Event streams observe
// the terminal events and end. On a graceful shutdown the journal is
// compacted down to the live record set before closing, so the next boot
// replays only what is actually outstanding instead of chewing through
// the full generation.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
drain:
	for {
		select {
		case job := <-s.queue:
			job.markCancelled()
		default:
			break drain
		}
	}
	// Leased jobs are requeued by the coordinator's Close; with the server
	// closed, fireRetry turns each requeue into a cancellation, and the
	// terminal journal records land before the compaction below.
	if s.fleet != nil {
		s.fleet.Close()
	}
	// Backed-off jobs waiting on retry timers would otherwise wait forever
	// for a requeue that cannot come. fireRetry checks closed under s.mu,
	// so a timer that already fired either enqueued before closed was set
	// (drained above) or cancels its job itself.
	s.retryMu.Lock()
	for job, t := range s.retryTimers {
		t.Stop()
		delete(s.retryTimers, job)
		job.markCancelled()
	}
	s.retryMu.Unlock()
	if s.journal != nil {
		// After the terminal transitions above, so their records landed.
		// Sealed is false only when New failed mid-startup — an unsealed
		// generation must not be compacted over the previous one.
		if s.journal.Sealed() {
			s.mu.Lock()
			live := s.liveJournalRecordsLocked()
			s.mu.Unlock()
			if err := s.journal.Compact(live); err != nil {
				s.journalErrs.Add(1)
			}
		}
		s.journal.Close()
	}
}

// lookupResult consults the in-memory LRU first, then the persistent
// store. A store hit is decoded and promoted into the LRU; unreadable or
// undecodable entries degrade to cache misses (the job then re-simulates,
// which is always correct).
func (s *Server) lookupResult(hash string) (*scenario.Result, bool) {
	if res, ok := s.results.Peek(hash); ok {
		s.srvm.cacheHits.Inc()
		return res, true
	}
	s.srvm.cacheMisses.Inc()
	if s.store == nil {
		return nil, false
	}
	data, ok, err := s.store.Get(hash)
	if err != nil || !ok {
		s.srvm.storeMisses.Inc()
		return nil, false
	}
	var res scenario.Result
	if err := json.Unmarshal(data, &res); err != nil {
		s.srvm.storeMisses.Inc()
		return nil, false
	}
	s.srvm.storeHits.Inc()
	s.results.Add(hash, &res)
	return &res, true
}

// persist writes a completed result to the LRU and, when configured, the
// durable store. Only fully completed results ever reach here — cancelled
// and failed runs return nil results and must never be served for their
// spec hash.
func (s *Server) persist(hash string, res *scenario.Result) {
	s.results.Add(hash, res)
	if s.store == nil {
		return
	}
	data, err := json.Marshal(res)
	if err == nil {
		err = s.store.Put(hash, data)
	}
	if err != nil {
		s.storeErrs.Add(1)
	}
}

// Submit compiles, registers, and enqueues a spec. A result-cache or
// store hit completes the job immediately without touching the queue; a
// full queue rejects with ErrQueueFull; a cost estimate beyond the pending
// budget rejects with ErrOverBudget; an invalid spec fails compilation.
//
// The closed check, registration, and (non-blocking) enqueue form one
// critical section: an enqueue therefore strictly precedes Close setting
// closed, so Close's post-wait queue drain observes every accepted job —
// nothing can slip into the queue of a closed server and sit there
// unserved. Rejected submissions leave no trace.
func (s *Server) Submit(spec scenario.Spec) (*Job, error) {
	comp, err := scenario.Compile(spec)
	if err != nil {
		s.srvm.admit("job", err)
		return nil, err
	}
	res, cached := s.lookupResult(comp.Hash())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.srvm.admissions.With("job", "closed").Inc()
		return nil, errors.New("server: closed")
	}
	// Prune before registering: a worker needs no s.mu to finish the new
	// job, so pruning after it could count the job against History on its
	// own submission, or not, depending on the schedule.
	s.pruneLocked()
	job, err := s.startJobLocked(fmt.Sprintf("j%06d", s.nextID+1), comp, res, cached, nil)
	s.srvm.admit("job", err)
	if err != nil {
		return nil, err
	}
	s.nextID++
	s.maybeCompactJournalLocked()
	return job, nil
}

// startJobLocked creates, registers, and dispatches one job: cached jobs
// complete immediately, everything else is charged against the admission
// budget and enqueued. id is caller-allocated: submissions pass a fresh id
// (advancing nextID on success), journal replay passes the job's pre-crash
// id so restarts preserve identity. The terminal hooks — sweep rollup,
// journal terminal record, and cost release — are registered before the
// job can possibly finish, and none of them takes s.mu, so they are safe
// to fire from any path (including the inline cache-hit completion below,
// which runs with s.mu held). Callers hold s.mu.
func (s *Server) startJobLocked(id string, comp *scenario.Compiled, res *scenario.Result, cached bool, sw *Sweep) (*Job, error) {
	job := newJob(id, comp)
	if sw != nil {
		job.fromSweep = true
		job.onTerminal(func() { sw.childTerminal(job) })
	}
	job.onTerminal(func() {
		s.journalAppend(journalRecord{Op: opTerminal, ID: job.id, Status: job.Status()})
	})
	if cached {
		if job.complete(res, true) {
			s.srvm.attempts.With("cached").Inc()
		}
	} else {
		cost := comp.CostEstimate()
		if !s.replaying && s.pending.Load()+cost > s.cfg.MaxPendingCost {
			return nil, fmt.Errorf("%w: estimate %d over budget %d", ErrOverBudget, cost, s.cfg.MaxPendingCost)
		}
		s.pending.Add(cost)
		job.onTerminal(func() { s.pending.Add(-cost) })
		if s.replaying {
			// Replay may re-admit more jobs than the queue holds. Workers
			// are already draining and never take s.mu, so a blocking send
			// cannot deadlock; every replayed job was admitted before the
			// crash, so it is never rejected a second time. A
			// coordinator-only server (Workers -1) has no local drain, so
			// overflow jobs go through the retry-timer path instead — they
			// re-enter the queue as fleet workers free it up.
			if s.cfg.Workers == 0 {
				select {
				case s.queue <- job:
				default:
					s.retryMu.Lock()
					s.retryTimers[job] = time.AfterFunc(s.cfg.RetryBackoff, func() { s.fireRetry(job) })
					s.retryMu.Unlock()
				}
			} else {
				select {
				case s.queue <- job:
				case <-s.ctx.Done():
					s.pending.Add(-cost)
					return nil, errors.New("server: closed")
				}
			}
		} else {
			select {
			case s.queue <- job:
			default:
				s.pending.Add(-cost)
				return nil, ErrQueueFull
			}
		}
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	// The accept record lands only after admission fully succeeded — a
	// rejected submission must leave no trace for replay to resurrect.
	// Sweep children are covered by their sweep record instead.
	if sw == nil {
		s.journalAppend(acceptRecord(job))
	}
	return job, nil
}

// SubmitSweep expands a sweep and submits every child atomically: either
// the whole grid is admitted (cache-served children completing instantly,
// the rest enqueued) or nothing is, so a sweep can never be half-accepted.
// Capacity and cost are checked up front against the whole batch; because
// every submission path holds s.mu and workers only drain the queue, the
// checks cannot be invalidated mid-loop.
func (s *Server) SubmitSweep(sw scenario.SweepSpec) (*Sweep, error) {
	exp, err := scenario.ExpandSweep(sw)
	if err != nil {
		s.srvm.admit("sweep", err)
		return nil, err
	}
	type lookup struct {
		res    *scenario.Result
		cached bool
	}
	looks := make([]lookup, len(exp.Children))
	need := 0
	var cost int64
	for i, comp := range exp.Children {
		looks[i].res, looks[i].cached = s.lookupResult(comp.Hash())
		if !looks[i].cached {
			need++
			cost += comp.CostEstimate()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.srvm.admissions.With("sweep", "closed").Inc()
		return nil, errors.New("server: closed")
	}
	s.pruneLocked() // before registering, as in Submit
	if len(s.queue)+need > cap(s.queue) {
		s.srvm.admissions.With("sweep", "queue_full").Inc()
		return nil, fmt.Errorf("%w: sweep needs %d queue slots", ErrQueueFull, need)
	}
	if s.pending.Load()+cost > s.cfg.MaxPendingCost {
		s.srvm.admissions.With("sweep", "over_budget").Inc()
		return nil, fmt.Errorf("%w: sweep estimate %d over budget %d", ErrOverBudget, cost, s.cfg.MaxPendingCost)
	}
	swpID := fmt.Sprintf("s%06d", s.nextSweep+1)
	childIDs := make([]string, len(exp.Children))
	for i := range childIDs {
		childIDs[i] = fmt.Sprintf("j%06d", s.nextID+1+i)
	}
	// Journal the whole batch before admitting any child: a crash between
	// this record and the last admission re-admits every child on replay
	// (completed ones as store cache hits) instead of losing the tail.
	if raw, err := json.Marshal(exp.Spec); err == nil {
		s.journalAppend(journalRecord{Op: opSweep, ID: swpID, Sweep: raw, Children: childIDs})
	}
	swp := newSweep(swpID, exp)
	s.nextSweep++
	for i, comp := range exp.Children {
		job, err := s.startJobLocked(childIDs[i], comp, looks[i].res, looks[i].cached, swp)
		if err != nil {
			// Unreachable given the up-front checks; fail closed anyway so a
			// future change cannot leave a half-registered sweep behind —
			// including in the journal, where terminal records for every
			// journaled child mark the sweep complete for replay.
			for _, cid := range childIDs {
				s.journalAppend(journalRecord{Op: opTerminal, ID: cid, Status: StatusCancelled})
			}
			for _, c := range swp.children {
				if c != nil {
					c.Cancel()
				}
			}
			s.srvm.admit("sweep", err)
			return nil, err
		}
		s.nextID++
		swp.children[i] = job
	}
	s.sweeps[swp.id] = swp
	s.sweepOrder = append(s.sweepOrder, swp.id)
	s.maybeCompactJournalLocked()
	s.srvm.admit("sweep", nil)
	return swp, nil
}

// pruneLocked drops the oldest terminal jobs once more than History are
// retained, so a long-running daemon's registry — and the per-trial result
// payloads each job pins — stays bounded. Eviction is strictly
// oldest-submission-first among terminal jobs: the scan walks s.order
// (append-only submission order), never map iteration order, so which job
// survives is deterministic. Live jobs are never pruned, regardless of
// age. Terminal sweeps are bounded the same way. Callers must hold s.mu.
func (s *Server) pruneLocked() {
	s.order = pruneOldest(s.order, s.cfg.History,
		func(id string) bool { return s.jobs[id].Status().terminal() },
		func(id string) { delete(s.jobs, id) })
	s.sweepOrder = pruneOldest(s.sweepOrder, s.cfg.History,
		func(id string) bool { return s.sweeps[id].terminal() },
		func(id string) { delete(s.sweeps, id) })
}

// pruneOldest drops the oldest terminal entries of order — in slice order,
// strictly front-first — until at most keep remain, calling drop for each
// eviction, and returns the retained order (reusing the backing array).
// Non-terminal entries are always retained.
func pruneOldest(order []string, keep int, terminal func(string) bool, drop func(string)) []string {
	count := 0
	for _, id := range order {
		if terminal(id) {
			count++
		}
	}
	if count <= keep {
		return order
	}
	kept := order[:0]
	for _, id := range order {
		if count > keep && terminal(id) {
			drop(id)
			count--
			continue
		}
		kept = append(kept, id)
	}
	return kept
}

// Job returns the job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Sweep returns the sweep by id.
func (s *Server) Sweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// Sweeps returns every sweep in submission order.
func (s *Server) Sweeps() []*Sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Sweep, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		out = append(out, s.sweeps[id])
	}
	return out
}

// recordCalibration folds one measured run into the wallclock-per-cost-unit
// calibration. Only real simulations count — cache hits would drag the
// factor toward zero and say nothing about the cost model.
func (s *Server) recordCalibration(cost int64, elapsed time.Duration) {
	if cost <= 0 {
		return
	}
	s.calibMu.Lock()
	s.calibJobs++
	s.calibNanos += float64(elapsed)
	s.calibCost += float64(cost)
	s.calibMu.Unlock()
}

// Calibration returns the running admission-cost calibration: how many
// jobs contributed and the measured nanoseconds per cost unit (0 until a
// job completes). The factor is cumulative — total wallclock over total
// cost — so long jobs weigh in proportionally to the work they measured.
func (s *Server) Calibration() (jobs int, nsPerUnit float64) {
	s.calibMu.Lock()
	defer s.calibMu.Unlock()
	if s.calibCost > 0 {
		nsPerUnit = s.calibNanos / s.calibCost
	}
	return s.calibJobs, nsPerUnit
}

// worker pulls jobs off the queue until the server context stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

// runJob executes one attempt of a job. The job's context descends from
// the server's, so both DELETE and Close cancel it; a spec with timeout_ms
// additionally bounds the attempt's wallclock. Cancellation and deadline
// are observed between trials.
func (s *Server) runJob(job *Job) {
	// Re-check the cache (and, through lookupResult, the persistent
	// store) before starting: an identical job submitted earlier may have
	// finished while this one sat in the queue, and its result may have
	// already been evicted from the LRU into store-only residence. The
	// check precedes tryStart so a cache-served job keeps the documented
	// queued → done event shape (complete no-ops if the job was cancelled
	// while queued).
	if res, ok := s.lookupResult(job.comp.Hash()); ok {
		if job.complete(res, true) {
			s.srvm.attempts.With("cached").Inc()
		}
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	deadline := job.comp.Spec().TimeoutMS
	if deadline > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, time.Duration(deadline)*time.Millisecond)
		defer tcancel()
	}
	if !job.tryStart(cancel) {
		return // cancelled while queued
	}
	algo := job.comp.Spec().Algorithm
	s.srvm.queueWait.With(algo).Observe(job.queueWait().Seconds())
	attempt := job.Attempt()
	s.journalAppend(journalRecord{Op: opStart, ID: job.id, Attempt: attempt})
	opts := scenario.RunOptions{
		Workers:    s.cfg.TrialWorkers,
		OnProgress: job.progress,
		Attempt:    attempt,
		ObserveTrial: func(d time.Duration) {
			s.srvm.trials.Inc()
			s.srvm.trialDuration.With(algo).Observe(d.Seconds())
		},
	}
	if s.cfg.Fault != nil {
		hash := job.comp.Hash()
		opts.Fault = func(trial, at int) error { return s.cfg.Fault.Trial(hash, trial, at) }
	}
	start := time.Now() //detvet:wallclock admission-cost calibration sample; never reaches results
	res, err := job.comp.RunWithOptions(ctx, opts)
	switch {
	case err == nil:
		// The run returned without error, which guarantees every trial
		// completed — only complete results are ever cached or persisted
		// under the spec hash (a cancelled or failed run returns a nil
		// result with its error instead).
		job.markReduced()
		s.recordCalibration(job.comp.CostEstimate(), time.Since(start)) //detvet:wallclock admission-cost calibration sample
		s.persist(job.comp.Hash(), res)
		job.markPersisted()
		if job.complete(res, false) {
			s.srvm.attempts.With("done").Inc()
			s.srvm.jobDuration.With(algo, presetLabel(job.comp.Spec())).Observe(job.totalDuration().Seconds())
		}
	case s.ctx.Err() != nil:
		// Server shutdown cancels every run.
		if job.markCancelled() {
			s.srvm.attempts.With("cancelled").Inc()
		}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		// The attempt blew the spec's deadline. The workload is
		// deterministic, so a rerun would time out identically: permanent
		// failure, never retried.
		if job.fail(fmt.Errorf("run exceeded %dms deadline", deadline)) {
			s.srvm.attempts.With("deadline").Inc()
		}
	case ctx.Err() != nil:
		// DELETE cancelled this job specifically.
		if job.markCancelled() {
			s.srvm.attempts.With("cancelled").Inc()
		}
	case scenario.IsTransient(err) && attempt < s.cfg.MaxRetries:
		s.scheduleRetry(job, err, attempt)
	default:
		if job.fail(err) {
			s.srvm.attempts.With("failed").Inc()
		}
	}
}

// scheduleRetry requeues a transiently-failed job after a jittered
// exponential backoff. The job transitions back to queued immediately,
// emitting a "retry" event carrying the attempt count and the cause; the
// timer fires the actual requeue.
func (s *Server) scheduleRetry(job *Job, cause error, attempt int) {
	if !job.retry(cause) {
		return // turned terminal concurrently (e.g. cancelled mid-failure)
	}
	s.srvm.attempts.With("retry").Inc()
	backoff := retryDelay(s.cfg.RetryBackoff, s.cfg.RetryMaxBackoff, job.id, attempt)
	s.retryMu.Lock()
	s.retryTimers[job] = time.AfterFunc(backoff, func() { s.fireRetry(job) })
	s.retryMu.Unlock()
}

// fireRetry moves a backed-off job back into the queue. The closed check
// and the send share one s.mu critical section, mirroring the submission
// invariant: an enqueue strictly precedes Close setting closed, so Close's
// post-wait drain observes every requeued job.
func (s *Server) fireRetry(job *Job) {
	s.retryMu.Lock()
	delete(s.retryTimers, job)
	s.retryMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		job.markCancelled()
		return
	}
	select {
	case s.queue <- job:
		s.mu.Unlock()
	default:
		// Queue momentarily full: try again shortly rather than failing a
		// job the backlog merely delayed.
		s.mu.Unlock()
		s.retryMu.Lock()
		s.retryTimers[job] = time.AfterFunc(s.cfg.RetryBackoff, func() { s.fireRetry(job) })
		s.retryMu.Unlock()
	}
}
