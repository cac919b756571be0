// Package sim executes algorithms in the dual graph radio network model
// (Section 2 of Censor-Hillel et al., PODC 2011). Executions proceed in
// synchronous rounds. Each round every process decides whether to broadcast;
// the adversary then fixes a reach set consisting of all reliable edges plus
// a chosen subset of unreliable edges; finally each node receives according
// to the model's collision rule:
//
//   - a broadcaster receives only its own message;
//   - a silent node with exactly one broadcasting reach-neighbor receives
//     that neighbor's message;
//   - otherwise the node receives ⊥ (there is no collision detection).
//
// The engine is deterministic for a fixed seed: one sequential round loop
// drives every execution.
//
// Performance: the runner maintains an active set of processes that are not
// yet Done, a wake calendar of sleeping processes, and a monotone undecided
// scan pointer, so each round costs O(runnable + hits) engine work rather
// than O(n). One walk over the hit nodes clears their counters, tallies
// receptions without branching on them, and dispatches Receive only for
// genuine receptions; per-round buffers (hit counters and list, broadcaster
// and delivery lists, adversary reach slices) are reused across rounds.
package sim

import (
	"errors"
	"fmt"
	"slices"

	"dualradio/internal/adversary"
	"dualradio/internal/dualgraph"
)

// Message is a broadcast payload. Concrete message types are defined by the
// algorithms; the engine needs only the sender id (for tracing) and the
// encoded size in bits (to enforce the model's b-bit message bound).
type Message interface {
	// From returns the sender's process id.
	From() int
	// BitSize returns the encoded message size in bits.
	BitSize() int
}

// Process is a per-node protocol automaton driven by the engine. All methods
// are invoked from a single goroutine at a time; a process never observes
// concurrent calls.
//
// Once Done reports true the engine stops driving the process: neither
// Broadcast nor Receive is called again (a done process never broadcasts by
// contract, and its outputs are frozen).
//
// A process whose protocol has a fixed total length may additionally expose
// a `Rounds() int` method. The engine then treats the process as done once
// Broadcast has been driven past round Rounds()-1, without querying Done
// every round. Such a process must become done exactly there: Done must not
// report true earlier and must not flip inside Receive.
//
// Sleeping. Broadcast returns, with the round's message, a wake round w: the
// earliest future round in which the process might broadcast again (or
// consume randomness deciding to). When the process stays silent the
// engine skips its Broadcast calls for every round in (round, w) — a
// knocked-out MIS competitor sleeps to its next epoch, a covered CCDS node
// sleeps through the banned-list phase, an unwoken asynchronous process
// sleeps to its wake-up round. A process that never sleeps returns
// round+1. The engine ignores w on broadcast rounds: a broadcaster is
// driven again in the next round.
//
// The bit-identity rule. Skipping the calls for (round, w) must leave the
// execution bit-identical to driving them: the process would have returned
// nil and changed no observable state in each of them. A reception may
// postpone the process's next broadcast but must never move it earlier
// than the declared wake round; Receive delivery itself is unaffected by
// sleeping.
//
// The coin pre-consumption rule. Bit-identity constrains how randomness may
// be handled while silent, and the exact engine's correctness hangs on it.
// Every sleep window satisfies it in one of two ways:
//
//   - No randomness while silent: the skipped rounds would not have touched
//     the process's RNG at all, so the stream position is trivially
//     preserved (the MIS schedule, and the banned-list CCDS's MIS part and
//     search phases 1–2).
//   - Pre-consuming the skipped draws: when every round — silent or not —
//     costs a fixed number of draws, Broadcast burns the skipped rounds'
//     draws before declaring the sleep, leaving the stream exactly where a
//     per-round drive would have left it (the enumeration-connect schedule
//     and the banned-list CCDS's search phase 3, whose every round costs
//     one coin).
//
// A protocol may use both rules, one per stretch of its schedule, as the
// banned-list CCDS does.
//
// Both rules bind the exact engine only. The leap engine (Config.Leap)
// drives LeapBroadcaster processes through BroadcastLeap instead, whose
// contract abandons bit-identity and therefore owes nothing for skipped
// rounds.
type Process interface {
	// Broadcast is called at the start of each round in which the
	// process is awake and returns the message to transmit (nil to stay
	// silent) together with the wake round described above.
	Broadcast(round int) (Message, int)
	// Receive delivers the message of the unique broadcaster that reached
	// the process this round, and is called only then. A round that ends
	// in ⊥ (silence or collision, indistinguishable in the model) makes no
	// call, and neither does the process's own broadcast round, since a
	// broadcaster hears only itself. So msg is never nil and never the
	// process's own message.
	Receive(round int, msg Message)
	// Output returns the process's current output: Undecided, 0, or 1.
	Output() int
	// Done reports whether the process has completed its protocol and
	// will never broadcast again.
	Done() bool
}

// Undecided is the Output value of a process that has not yet output 0 or 1.
const Undecided = -1

// ErrMessageTooLarge is returned when a process emits a message exceeding
// the configured b-bit bound.
var ErrMessageTooLarge = errors.New("sim: message exceeds size bound")

// Stats aggregates execution counters.
type Stats struct {
	Rounds          int // rounds executed
	Broadcasts      int // total broadcast attempts
	Deliveries      int // successful unique receptions (excluding self)
	Collisions      int // receiver-rounds with 2+ reachable broadcasters
	DecidedRound    int // first round after which every output != Undecided, or -1
	AllDone         bool
	GrayActivations int // unreliable edges activated by the adversary
}

// Observer receives a callback after every executed round. Slices passed to
// OnRound are reused between rounds and must not be retained.
type Observer interface {
	OnRound(round int, broadcasters []int, delivered []Delivery)
}

// Delivery records one successful reception.
type Delivery struct {
	To  int // receiving node index
	Msg Message
}

// Config assembles an execution.
type Config struct {
	Net       *dualgraph.Network
	Adversary adversary.Adversary // nil means adversary.None
	Processes []Process           // indexed by node
	// MessageBits is the model's b bound on message size in bits;
	// 0 disables enforcement.
	MessageBits int
	// MaxRounds caps the execution length.
	MaxRounds int
	// Observer, if non-nil, is invoked after every round.
	Observer Observer
	// Leap enables the leap-ahead event engine: processes implementing
	// LeapBroadcaster are driven through BroadcastLeap (which samples the
	// next broadcast round geometrically instead of flipping a coin per
	// round), and whenever every awake process is parked in the wake
	// calendar the round clock jumps straight to the earliest scheduled
	// wake. Skipped rounds execute trivially (no broadcasters, no
	// deliveries) and still count in Stats.Rounds, but the Observer is not
	// invoked for them and stateful adversaries see one Skip call (see
	// adversary.Skipper) instead of per-round Reach calls. The execution is
	// statistically equivalent to the exact engine — identical in
	// distribution, NOT bit-identical, because the PCG streams are consumed
	// in a different order.
	Leap bool
}

// Runner executes a configured execution round by round.
type Runner struct {
	cfg   Config
	adv   adversary.Adversary
	gray  [][2]int
	round int
	stats Stats
	msgs  []Message
	bcast []bool
	cnt   []int32
	from  []int32
	// Reusable per-round buffers; touched has n+1 slots (see hit).
	touched []int32
	bList   []int
	dList   []Delivery
	// Active-set bookkeeping: the not-yet-Done processes in ascending node
	// order. deadline[v] >= 0 caches a fixed-length process's total round
	// count, so completion is an integer compare instead of an interface
	// call; -1 falls back to querying Done each round. firstUndecided is
	// the monotone scan pointer behind AllDecided.
	active         []int32
	isActive       []bool
	deadline       []int
	firstUndecided int
	// Sleep bookkeeping: sleepUntil[v] is the round before which
	// Broadcast calls are skipped. leapers[v] is non-nil for
	// LeapBroadcaster processes when Config.Leap is set.
	sleepUntil []int
	leapers    []LeapBroadcaster
	// Wake calendar: runnable is the awake subset of active (ascending);
	// sleeping processes sit in a min-heap of (wakeRound, node) pairs and
	// are merged back when their round arrives, so a round's broadcast
	// loop costs O(runnable) rather than O(active).
	runnable []int32
	wakeHeap []int64
	scratch  []int32
	// uniformDeadline >= 0 when every process shares one fixed schedule
	// length: the whole fleet completes in the same round, so the
	// per-round sweep is a single comparison. -1 = heterogeneous.
	uniformDeadline int
	fatalErr        error
}

// fixedLength is the optional Process extension for protocols with a fixed
// total round count (see the Process contract).
type fixedLength interface {
	Rounds() int
}

// LeapBroadcaster is the optional Process extension the leap engine
// (Config.Leap) drives in place of Broadcast. Like Broadcast it returns the
// round's message together with a wake round w such that the process is
// guaranteed silent for every round in (round, w) — but the guarantee is
// distributional, not bit-identical: BroadcastLeap may sample its next
// broadcast round directly from the geometric distribution of the per-round
// coin's first success instead of flipping the coin each round, so skipped
// rounds owe no randomness at all (no draws, no pre-consumption). The law of
// the execution must equal the exact engine's; the realized trajectory for a
// fixed seed generally differs.
//
// A pre-sampled broadcast round may be invalidated by a reception that
// changes the process's state before the round arrives (a knockout, a stop
// order). Discarding the stale sample and re-deciding from the current state
// at the wake round preserves the law: the discarded coins correspond to
// stream positions the exact schedule would never have consumed after the
// same state change, and the geometric distribution is memoryless. As with
// Broadcast, a reception may postpone the next broadcast but never move it
// earlier than the declared wake round.
type LeapBroadcaster interface {
	Process
	BroadcastLeap(round int) (Message, int)
}

// NewRunner validates the configuration and returns a ready Runner.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Net == nil {
		return nil, errors.New("sim: nil network")
	}
	n := cfg.Net.N()
	if n > wakeNodeMask+1 {
		return nil, fmt.Errorf("sim: %d nodes exceed the engine's limit of %d", n, wakeNodeMask+1)
	}
	if len(cfg.Processes) != n {
		return nil, fmt.Errorf("sim: %d processes for %d nodes", len(cfg.Processes), n)
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = adversary.None{}
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1 << 22
	}
	r := &Runner{
		cfg:        cfg,
		adv:        adv,
		gray:       cfg.Net.GrayEdges(),
		msgs:       make([]Message, n),
		bcast:      make([]bool, n),
		cnt:        make([]int32, n),
		from:       make([]int32, n),
		touched:    make([]int32, n+1),
		active:     make([]int32, 0, n),
		isActive:   make([]bool, n),
		deadline:   make([]int, n),
		sleepUntil: make([]int, n),
	}
	if cfg.Leap {
		r.leapers = make([]LeapBroadcaster, n)
	}
	r.uniformDeadline = -1
	for v, p := range cfg.Processes {
		r.deadline[v] = -1
		if fl, ok := p.(fixedLength); ok {
			r.deadline[v] = fl.Rounds()
		}
		switch {
		case v == 0:
			r.uniformDeadline = r.deadline[v]
		case r.uniformDeadline != r.deadline[v]:
			r.uniformDeadline = -1
		}
		if cfg.Leap {
			// Leap mode prefers the distribution-preserving fast path;
			// processes without one keep their exact Broadcast.
			if lb, ok := p.(LeapBroadcaster); ok {
				r.leapers[v] = lb
			}
		}
		if !p.Done() {
			r.active = append(r.active, int32(v))
			r.isActive[v] = true
		}
	}
	r.runnable = append(r.runnable, r.active...)
	r.stats.DecidedRound = -1
	return r, nil
}

// wakeRunnable merges every process whose wake round has arrived back into
// the runnable list, preserving ascending node order.
func (r *Runner) wakeRunnable() {
	if len(r.wakeHeap) == 0 || int(r.wakeHeap[0]>>20) > r.round {
		return
	}
	woken := r.scratch[:0]
	for len(r.wakeHeap) > 0 && int(r.wakeHeap[0]>>20) <= r.round {
		v := int32(r.wakeHeap[0] & wakeNodeMask)
		r.heapPop()
		if r.isActive[v] {
			woken = append(woken, v)
		}
	}
	if len(woken) == 0 {
		r.scratch = woken[:0]
		return
	}
	slices.Sort(woken)
	// Merge the sorted woken nodes into the (ascending) runnable list.
	merged := woken[len(woken):]
	i, j := 0, 0
	for i < len(r.runnable) && j < len(woken) {
		if r.runnable[i] < woken[j] {
			merged = append(merged, r.runnable[i])
			i++
		} else {
			merged = append(merged, woken[j])
			j++
		}
	}
	merged = append(merged, r.runnable[i:]...)
	merged = append(merged, woken[j:]...)
	r.runnable = append(r.runnable[:0], merged...)
	r.scratch = woken[:0]
}

// wakeNodeMask packs (wakeRound<<20 | node) into one heap key; 20 bits cover
// the engine's 2^20-node ceiling (enforced by NewRunner) while leaving 43
// bits for rounds.
const wakeNodeMask = 1<<20 - 1

func (r *Runner) heapPush(key int64) {
	h := append(r.wakeHeap, key)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	r.wakeHeap = h
}

func (r *Runner) heapPop() {
	h := r.wakeHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < n && h[l] < h[small] {
			small = l
		}
		if rr < n && h[rr] < h[small] {
			small = rr
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	r.wakeHeap = h
}

// Round returns the number of rounds executed so far.
func (r *Runner) Round() int { return r.round }

// Stats returns a copy of the execution counters.
func (r *Runner) Stats() Stats { return r.stats }

// Err returns the first fatal error encountered (for example a message-size
// violation), or nil.
func (r *Runner) Err() error { return r.fatalErr }

// AllDecided reports whether every process has output 0 or 1. Decisions are
// permanent for every algorithm in this library (outputs never revert to
// Undecided), so a monotone scan pointer makes the check O(1) amortized:
// each process is queried only until it first reports a decision.
func (r *Runner) AllDecided() bool {
	procs := r.cfg.Processes
	for r.firstUndecided < len(procs) && procs[r.firstUndecided].Output() != Undecided {
		r.firstUndecided++
	}
	return r.firstUndecided == len(procs)
}

// Step executes one round. It reports false when the execution has finished
// (all processes done, the round cap was reached, or a fatal error occurred).
func (r *Runner) Step() bool {
	if r.fatalErr != nil || r.round >= r.cfg.MaxRounds {
		return false
	}

	// Leap mode: when every awake process is parked in the wake calendar,
	// the intervening rounds are provably broadcast-free — jump the clock
	// straight to the earliest scheduled wake.
	if r.cfg.Leap && len(r.runnable) == 0 && len(r.wakeHeap) > 0 {
		if next := int(r.wakeHeap[0] >> 20); next > r.round {
			target := min(next, r.cfg.MaxRounds)
			if skipped := target - r.round; skipped > 0 {
				if sk, ok := r.adv.(adversary.Skipper); ok {
					sk.Skip(r.round, skipped)
				}
				r.round = target
				r.stats.Rounds = r.round
			}
			if r.round >= r.cfg.MaxRounds {
				return false
			}
		}
	}

	// Phase 1: collect broadcast decisions from the runnable processes
	// and enforce the b-bit bound on the broadcasters (everyone else is
	// nil). Processes whose declared wake round has arrived rejoin first.
	r.wakeRunnable()
	r.collectBroadcasts()
	if r.fatalErr != nil {
		return false
	}
	r.stats.Broadcasts += len(r.bList)

	// Phase 2+3: reliable receptions are counted first, so the adversary
	// sees the round's reliable hit counts; then it fixes the reach set,
	// and finally the activated gray edges are folded into the same hit
	// counters.
	g := r.cfg.Net.G()
	nt := 0
	for _, u := range r.bList {
		for _, v := range g.Neighbors(u) {
			nt = r.hit(nt, v, int32(u))
		}
	}
	reach := r.adv.Reach(r.round, r.bcast, r.bList, r.cnt, r.touched[:nt])
	r.stats.GrayActivations += len(reach)
	for _, idx := range reach {
		e := r.gray[idx]
		if r.bcast[e[0]] {
			nt = r.hit(nt, int32(e[1]), int32(e[0]))
		}
		if r.bcast[e[1]] {
			nt = r.hit(nt, int32(e[0]), int32(e[1]))
		}
	}

	// Phase 4: one walk over the hit nodes clears their counters, tallies
	// receptions (done processes count too) and calls Receive for each
	// genuine one. Observers get deliveries in node order: sort first.
	hits := r.touched[:nt]
	if r.cfg.Observer != nil {
		slices.Sort(hits)
		r.dList = r.dList[:0]
	}
	deliveries, collisions := 0, 0
	for _, v := range hits {
		c := r.cnt[v]
		r.cnt[v] = 0
		// Flags, not branches; c >= 1, so a silent non-delivery collided.
		silent, single := 1, 0
		if r.bcast[v] {
			silent = 0
		}
		if c == 1 {
			single = 1
		}
		d := silent & single
		deliveries += d
		collisions += silent - d
		if d == 0 {
			continue
		}
		m := r.msgs[r.from[v]]
		if r.cfg.Observer != nil {
			r.dList = append(r.dList, Delivery{To: int(v), Msg: m})
		}
		if r.isActive[v] {
			r.cfg.Processes[v].Receive(r.round, m)
		}
	}
	r.stats.Deliveries += deliveries
	r.stats.Collisions += collisions
	if r.cfg.Observer != nil {
		r.cfg.Observer.OnRound(r.round, r.bList, r.dList)
	}

	// Bookkeeping: advance the clock, then sweep the active set for new
	// decisions and completed processes.
	r.round++
	r.stats.Rounds = r.round

	if r.uniformDeadline >= 0 {
		// Homogeneous fixed-length fleet: nobody completes before the
		// shared final round, and everybody completes at it.
		if r.round > r.uniformDeadline {
			for _, v := range r.active {
				r.bcast[v] = false
				r.msgs[v] = nil
				r.isActive[v] = false
			}
			r.active = r.active[:0]
		}
	} else {
		na := r.active[:0]
		for _, v := range r.active {
			if d := r.deadline[v]; d >= 0 {
				// Fixed-length protocol: done exactly once round
				// d has been driven (r.round already points past
				// it).
				if r.round <= d {
					na = append(na, v)
					continue
				}
			} else if !r.cfg.Processes[v].Done() {
				na = append(na, v)
				continue
			}
			// Clear per-node state so stale flags cannot leak into
			// later rounds' reach or delivery computations.
			r.bcast[v] = false
			r.msgs[v] = nil
			r.isActive[v] = false
		}
		r.active = na
	}

	if r.stats.DecidedRound < 0 && r.AllDecided() {
		r.stats.DecidedRound = r.round
	}
	if len(r.active) == 0 {
		r.stats.AllDone = true
		return false
	}
	return true
}

// collectBroadcasts drives Broadcast on every runnable process, parking the
// ones that declare a sleep in the wake calendar, builds the broadcaster
// list, and validates message sizes. Done processes are skipped entirely:
// by contract they never broadcast again.
func (r *Runner) collectBroadcasts() {
	// msgs[v] is written only for broadcasters: the slot is read solely
	// by the size check below and via from[v] (which always names a
	// current broadcaster), so stale entries are unreachable and the
	// common silent round costs no interface stores or write barriers.
	r.bList = r.bList[:0]
	nr := r.runnable[:0]
	for _, v := range r.runnable {
		if !r.isActive[v] {
			continue
		}
		if w := r.sleepUntil[v]; w > r.round {
			r.heapPush(int64(w)<<20 | int64(v))
			continue
		}
		nr = append(nr, v)
		if m := r.broadcast(int(v)); m != nil {
			r.msgs[v] = m
			r.bcast[v] = true
			r.bList = append(r.bList, int(v))
		} else if r.bcast[v] {
			r.bcast[v] = false
		}
	}
	r.runnable = nr
	if r.cfg.MessageBits > 0 {
		// Only broadcasters carry messages, so the bound is checked on
		// the (usually short) broadcaster list instead of all n slots.
		for _, v := range r.bList {
			if m := r.msgs[v]; m.BitSize() > r.cfg.MessageBits {
				r.fatalErr = &SizeError{Node: v, Bits: m.BitSize(), Bound: r.cfg.MessageBits}
				return
			}
		}
	}
}

// broadcast asks the process at node v for its round message — through
// BroadcastLeap when the leap engine drives it — and records a declared
// sleep so collectBroadcasts parks the process until its wake round.
func (r *Runner) broadcast(v int) Message {
	var m Message
	var wake int
	if r.leapers != nil && r.leapers[v] != nil {
		m, wake = r.leapers[v].BroadcastLeap(r.round)
	} else {
		m, wake = r.cfg.Processes[v].Broadcast(r.round)
	}
	if m == nil && wake > r.round+1 {
		// Never sleep past a fixed-length process's final round:
		// driving it there flips Done for outside observers.
		if d := r.deadline[v]; d >= 0 && wake > d {
			wake = d
		}
		r.sleepUntil[v] = wake
	}
	return m
}

// hit counts one broadcaster reaching v. touched has a slot past every node, so
// v is written unconditionally and nt advances only on v's first hit (a CMOV).
func (r *Runner) hit(nt int, v, from int32) int {
	r.touched[nt] = v
	if r.cnt[v] == 0 {
		nt++
	}
	r.cnt[v]++
	r.from[v] = from
	return nt
}

// Run executes rounds until the execution finishes and returns the stats.
func (r *Runner) Run() (Stats, error) {
	for r.Step() {
	}
	return r.stats, r.fatalErr
}

// RunUntil executes rounds until cond returns true (checked after each
// round) or the execution finishes.
func (r *Runner) RunUntil(cond func() bool) (Stats, error) {
	for {
		if cond() {
			return r.stats, r.fatalErr
		}
		if !r.Step() {
			return r.stats, r.fatalErr
		}
	}
}

// Processes returns the configured processes (indexed by node).
func (r *Runner) Processes() []Process { return r.cfg.Processes }

// SizeError reports a message exceeding the configured bit bound.
type SizeError struct {
	Node  int
	Bits  int
	Bound int
}

// Error implements error.
func (e *SizeError) Error() string {
	return fmt.Sprintf("sim: node %d sent %d bits, bound is %d", e.Node, e.Bits, e.Bound)
}

// Is reports whether target is ErrMessageTooLarge.
func (e *SizeError) Is(target error) bool { return target == ErrMessageTooLarge }
