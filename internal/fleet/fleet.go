// Package fleet distributes a radiod's job queue across remote worker
// processes: workers register with the coordinator over HTTP, send
// periodic heartbeats, pull leased work units, and report results; the
// coordinator tracks which worker holds which lease and — the robustness
// core — declares a worker dead once its heartbeats stop, expires its
// leases, and returns the in-flight jobs to the queue for survivors (or
// the local worker pool) to pick up.
//
// The design leans on two properties the rest of the service already
// guarantees. Execution is deterministic in the canonical spec, so a job
// produces the same Result no matter which node runs it or how many times
// it is re-dispatched. And the result store is content-addressed and
// write-once, so duplicate completions — a "dead" worker that was merely
// partitioned and reports late, a duplicated RPC — merge byte-exactly
// instead of conflicting. Re-dispatch therefore only ever costs wasted
// work, never correctness, and a sweep's final report is byte-identical
// whether it ran on 0, 1, or N workers with mid-sweep kills.
//
// Crash safety: lease grants, re-dispatches, and worker lifecycle
// transitions are journaled (through the Backend) as observability
// records. Replay deliberately ignores them — after a coordinator crash
// every pre-crash lease is void because the lease table died with the
// process, so replay re-admits the leased jobs as queued (their accept
// records are the source of truth) and the assignment is rebuilt from
// scratch, which is trivially consistent. Late completions against void
// leases are adopted by job id and deduplicated by the store.
package fleet

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dualradio/internal/scenario"
)

// Journal record ops for fleet transitions. They are written through
// Backend and ignored by crash replay (see the package comment); their
// value is forensic: the journal shows exactly which worker held which
// job and why it moved.
const (
	// OpWorkerLive records a worker registration.
	OpWorkerLive = "worker-live"
	// OpWorkerDead records a worker declared dead after missed heartbeats.
	OpWorkerDead = "worker-dead"
	// OpLease records a work-unit grant to a worker.
	OpLease = "lease"
	// OpRedispatch records a leased job returned to the queue.
	OpRedispatch = "redispatch"
)

// Record is one fleet journal line.
type Record struct {
	Op     string `json:"op"`
	Worker string `json:"worker,omitempty"`
	Name   string `json:"name,omitempty"`
	Job    string `json:"job,omitempty"`
	Lease  string `json:"lease,omitempty"`
	Reason string `json:"reason,omitempty"`
	// TS is the wallclock append time, stamped by the journal writer for
	// forensics and ignored by replay.
	TS time.Time `json:"ts"`
}

// Backend is the coordinator's view of the job queue — implemented by the
// server, faked in tests. Its methods are called with no coordinator lock
// held, so implementations may take their own locks freely.
type Backend interface {
	// Next leases the next runnable job to worker under the given lease
	// id, returning its serialized work unit, or nil when no work is
	// available. Implementations journal the grant.
	Next(worker, lease string) *scenario.WorkUnit
	// Complete finishes a job with a worker's marshaled scenario.Result.
	// It must be idempotent (late and duplicate deliveries no-op) and must
	// accept results whose lease has expired — a re-dispatched job's first
	// result to arrive wins, whoever ran it.
	Complete(job string, result []byte) error
	// Fail reports a remote execution failure; transient failures may be
	// retried by the backend's own policy.
	Fail(job, msg string, transient bool)
	// Requeue returns a leased job to the queue after its worker died, its
	// lease expired, or the coordinator shut down. It reports whether the
	// job was actually requeued (false when the job already completed or
	// moved on — the lease id scopes the request to this grant).
	// Implementations journal successful re-dispatches.
	Requeue(job, lease, worker, reason string) bool
	// WorkerEvent journals a worker lifecycle transition (OpWorkerLive or
	// OpWorkerDead).
	WorkerEvent(op, worker, name string)
}

// Config tunes the coordinator's failure detector.
type Config struct {
	// Heartbeat is the interval workers are told to beat at (default 2s).
	Heartbeat time.Duration
	// DeadAfter declares a worker dead after this much heartbeat silence
	// (default 3×Heartbeat). Dead workers' leases are re-dispatched; a
	// dead worker that comes back must re-register.
	DeadAfter time.Duration
	// LeaseTTL is the absolute cap on one lease's lifetime regardless of
	// heartbeats — a safety net against a live worker wedged on one job
	// (default 10m; 0 disables).
	LeaseTTL time.Duration
	// MaxSlots caps the concurrent leases any single worker may hold,
	// whatever it asks for (default 64).
	MaxSlots int
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.Heartbeat
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 10 * time.Minute
	} else if c.LeaseTTL < 0 {
		c.LeaseTTL = 0
	}
	if c.MaxSlots <= 0 {
		c.MaxSlots = 64
	}
	return c
}

type workerState struct {
	id       string
	name     string
	slots    int
	live     bool
	lastBeat time.Time
	leases   map[string]*lease
}

type lease struct {
	id      string
	job     string
	worker  string
	granted time.Time
}

// Coordinator tracks the worker fleet and its leases. Construct with New,
// start the failure detector with Start, stop with Close. A coordinator
// with no registered workers is inert — the embedding server behaves
// exactly as if the fleet layer did not exist.
type Coordinator struct {
	cfg Config
	be  Backend
	now func() time.Time // injectable clock for tests
	m   *instruments     // nil until Instrument; set before any traffic

	stopReaper context.CancelFunc
	reaperDone chan struct{}

	mu        sync.Mutex
	workers   map[string]*workerState
	order     []string // registration order, for stable views
	leases    map[string]*lease
	nextW     int
	nextL     int
	closed    bool
	closeOnce sync.Once

	granted      atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	redispatched atomic.Int64
	expired      atomic.Int64
	adopted      atomic.Int64
	deadWorkers  atomic.Int64
}

// New builds a coordinator over the backend. Call Start to arm the
// heartbeat failure detector.
func New(be Backend, cfg Config) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		be:      be,
		now:     time.Now, //detvet:wallclock injectable liveness clock; heartbeat ages never touch results or hashes
		workers: make(map[string]*workerState),
		leases:  make(map[string]*lease),
	}
}

// Start launches the reaper that expires dead workers and overripe leases.
// It runs until ctx is cancelled or Close is called.
func (c *Coordinator) Start(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	c.stopReaper = cancel
	c.reaperDone = make(chan struct{})
	interval := c.cfg.DeadAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		defer close(c.reaperDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.reap()
			}
		}
	}()
}

// Close stops the reaper and requeues every outstanding lease so the
// embedding server can settle the jobs (cancel on shutdown). Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.stopReaper != nil {
			c.stopReaper()
			<-c.reaperDone
		}
		c.mu.Lock()
		c.closed = true
		var acts []*lease
		for _, l := range c.leases {
			acts = append(acts, l)
		}
		c.leases = make(map[string]*lease)
		for _, w := range c.workers {
			w.leases = make(map[string]*lease)
		}
		c.mu.Unlock()
		// Requeue in lease-id order: the map walk above is randomized, and
		// the requeue order decides both journal record order and the queue
		// order jobs settle in.
		sort.Slice(acts, func(i, j int) bool { return acts[i].id < acts[j].id })
		for _, l := range acts {
			c.be.Requeue(l.job, l.id, l.worker, "coordinator shutdown")
		}
	})
}

// Register admits a worker and returns its id. slots bounds its concurrent
// leases (values < 1 mean 1; capped at MaxSlots).
func (c *Coordinator) Register(name string, slots int) (string, error) {
	if slots < 1 {
		slots = 1
	}
	if slots > c.cfg.MaxSlots {
		slots = c.cfg.MaxSlots
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", errClosed
	}
	c.nextW++
	w := &workerState{
		id:       workerID(c.nextW),
		name:     name,
		slots:    slots,
		live:     true,
		lastBeat: c.now(),
		leases:   make(map[string]*lease),
	}
	c.workers[w.id] = w
	c.order = append(c.order, w.id)
	c.mu.Unlock()
	c.be.WorkerEvent(OpWorkerLive, w.id, name)
	return w.id, nil
}

// Heartbeat refreshes a worker's liveness. ErrGone means the coordinator
// no longer recognizes the worker (it was declared dead, or the
// coordinator restarted) and the worker must re-register.
func (c *Coordinator) Heartbeat(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok || !w.live || c.closed {
		return ErrGone
	}
	w.lastBeat = c.now()
	return nil
}

// Lease grants up to max work units to the worker, bounded by its free
// slots. An empty grant means the queue had nothing runnable. ErrGone
// follows the same re-register contract as Heartbeat.
func (c *Coordinator) Lease(workerID string, max int) ([]scenario.WorkUnit, error) {
	if max < 1 {
		max = 1
	}
	var units []scenario.WorkUnit
	for len(units) < max {
		c.mu.Lock()
		w, ok := c.workers[workerID]
		if !ok || !w.live || c.closed {
			c.mu.Unlock()
			// The worker died (or the coordinator is closing) mid-grant:
			// hand everything already pulled straight back.
			name := c.workerName(workerID)
			for _, u := range units {
				if c.be.Requeue(u.Job, u.Lease, workerID, "worker gone during grant") {
					c.redispatched.Add(1)
					c.m.leaseRedispatched(name)
				}
			}
			return nil, ErrGone
		}
		if len(w.leases) >= w.slots {
			c.mu.Unlock()
			break
		}
		w.lastBeat = c.now() // pulling work proves liveness
		c.nextL++
		leaseID := leaseIDf(c.nextL)
		c.mu.Unlock()

		// Backend calls happen outside c.mu (they take the server's own
		// locks); liveness is re-checked before the lease is recorded.
		unit := c.be.Next(workerID, leaseID)
		if unit == nil {
			break
		}
		c.mu.Lock()
		if !w.live || c.closed {
			c.mu.Unlock()
			if c.be.Requeue(unit.Job, leaseID, workerID, "worker gone during grant") {
				c.redispatched.Add(1)
				c.m.leaseRedispatched(w.name)
			}
			continue
		}
		l := &lease{id: leaseID, job: unit.Job, worker: workerID, granted: c.now()}
		w.leases[leaseID] = l
		c.leases[leaseID] = l
		c.mu.Unlock()
		c.granted.Add(1)
		c.m.leaseGranted(w.name)
		units = append(units, *unit)
	}
	return units, nil
}

// Complete settles a worker's report for one leased job. A result payload
// is always applied — even when the lease is unknown (expired, or granted
// by a pre-crash coordinator), because a deterministic job's result is
// valid whoever produced it; the store's write-once semantics deduplicate
// the copies. An error report is only honored from the current lease
// holder: a stale worker's failure says nothing about the re-dispatched
// run now in flight.
func (c *Coordinator) Complete(workerID, leaseID, job string, result []byte, errMsg string, transient bool) error {
	c.mu.Lock()
	if w, ok := c.workers[workerID]; ok && w.live {
		w.lastBeat = c.now()
	}
	current := false
	if l, ok := c.leases[leaseID]; ok && l.job == job {
		current = true
		delete(c.leases, leaseID)
		if w, ok := c.workers[l.worker]; ok {
			delete(w.leases, leaseID)
		}
	}
	c.mu.Unlock()

	switch {
	case result != nil:
		if !current {
			c.adopted.Add(1)
		}
		if err := c.be.Complete(job, result); err != nil {
			// The lease was already untracked above; without a requeue an
			// unusable payload would leave the job running forever.
			if current && c.be.Requeue(job, leaseID, workerID, "unusable result: "+err.Error()) {
				c.redispatched.Add(1)
				c.m.leaseRedispatched(c.workerName(workerID))
			}
			return err
		}
		c.completed.Add(1)
		c.m.jobCompleted(c.workerName(workerID))
		return nil
	case current:
		c.failed.Add(1)
		c.m.jobFailed(c.workerName(workerID))
		c.be.Fail(job, errMsg, transient)
		return nil
	default:
		return nil // stale failure report: the job has moved on
	}
}

// reap runs one failure-detector pass: workers past DeadAfter silence are
// declared dead and their leases re-dispatched; leases past LeaseTTL are
// expired regardless of worker liveness.
func (c *Coordinator) reap() {
	now := c.now()
	type action struct {
		l      *lease
		reason string
	}
	var acts []action
	var dead []*workerState
	c.mu.Lock()
	for _, id := range c.order {
		w := c.workers[id]
		if !w.live || now.Sub(w.lastBeat) <= c.cfg.DeadAfter {
			continue
		}
		w.live = false
		dead = append(dead, w)
		for lid, l := range w.leases {
			delete(c.leases, lid)
			delete(w.leases, lid)
			acts = append(acts, action{l, "worker " + w.name + " missed heartbeats"})
		}
	}
	if c.cfg.LeaseTTL > 0 {
		for lid, l := range c.leases {
			if now.Sub(l.granted) <= c.cfg.LeaseTTL {
				continue
			}
			delete(c.leases, lid)
			if w, ok := c.workers[l.worker]; ok {
				delete(w.leases, lid)
			}
			c.expired.Add(1)
			acts = append(acts, action{l, "lease TTL expired"})
		}
	}
	c.mu.Unlock()
	for _, w := range dead {
		c.deadWorkers.Add(1)
		c.be.WorkerEvent(OpWorkerDead, w.id, w.name)
	}
	// acts was collected from two map walks (per-worker leases, then
	// TTL-expired coordinator leases); sort so redispatch journal records
	// and requeue order are stable for identical failure histories.
	sort.Slice(acts, func(i, j int) bool { return acts[i].l.id < acts[j].l.id })
	for _, a := range acts {
		if c.be.Requeue(a.l.job, a.l.id, a.l.worker, a.reason) {
			c.redispatched.Add(1)
			c.m.leaseRedispatched(c.workerName(a.l.worker))
		}
	}
}

// Counters is the coordinator's cumulative gauge set, exposed via
// GET /v1/fleet; the server's /metrics renders the worker, active-lease,
// expiry and adoption fields as gauges.
type Counters struct {
	WorkersLive   int   `json:"workers_live"`
	WorkersDead   int64 `json:"workers_dead"`
	LeasesActive  int   `json:"leases_active"`
	LeasesGranted int64 `json:"leases_granted"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Redispatched  int64 `json:"redispatched"`
	LeasesExpired int64 `json:"leases_expired"`
	Adopted       int64 `json:"adopted"`
}

// WorkerView is one worker row of the fleet view.
type WorkerView struct {
	ID           string   `json:"id"`
	Name         string   `json:"name"`
	Live         bool     `json:"live"`
	ActiveLeases int      `json:"active_leases"`
	Jobs         []string `json:"jobs,omitempty"`
}

// View is the GET /v1/fleet response.
type View struct {
	Workers  []WorkerView `json:"workers"`
	Counters Counters     `json:"counters"`
}

// Snapshot returns the current fleet view.
func (c *Coordinator) Snapshot() View {
	c.mu.Lock()
	v := View{Workers: make([]WorkerView, 0, len(c.order))}
	active := 0
	for _, id := range c.order {
		w := c.workers[id]
		wv := WorkerView{ID: w.id, Name: w.name, Live: w.live, ActiveLeases: len(w.leases)}
		for _, l := range w.leases {
			wv.Jobs = append(wv.Jobs, l.job)
		}
		if w.live {
			v.Counters.WorkersLive++
			active += len(w.leases)
		}
		v.Workers = append(v.Workers, wv)
	}
	v.Counters.LeasesActive = active
	c.mu.Unlock()
	v.Counters.WorkersDead = c.deadWorkers.Load()
	v.Counters.LeasesGranted = c.granted.Load()
	v.Counters.Completed = c.completed.Load()
	v.Counters.Failed = c.failed.Load()
	v.Counters.Redispatched = c.redispatched.Load()
	v.Counters.LeasesExpired = c.expired.Load()
	v.Counters.Adopted = c.adopted.Load()
	return v
}

// HeartbeatInterval returns the cadence workers are told to beat at.
func (c *Coordinator) HeartbeatInterval() time.Duration { return c.cfg.Heartbeat }

// DeadAfter returns the silence threshold after which a worker is dead.
func (c *Coordinator) DeadAfter() time.Duration { return c.cfg.DeadAfter }
