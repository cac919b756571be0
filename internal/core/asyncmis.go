package core

import (
	"dualradio/internal/detector"
	"dualradio/internal/sim"
)

// AsyncMISProcess is the Section 9 MIS variant for asynchronous starts.
// Each process runs its own locally-timed epochs: a listening phase of
// Θ(log² n) silent rounds, then the usual doubling competition phases, then
// an announcement phase. Any kept message received while competing or
// listening knocks the process back to a fresh epoch (restarting with a new
// listening phase). A process that joins the MIS announces with probability
// 1/2 for the remainder of the execution, so late wakers still learn of it.
//
// With FilterNone the algorithm uses no topology information at all and is
// correct in the classic radio network model (G = G'); with FilterDetector
// and a 0-complete detector it is correct in the dual graph model
// (Theorem 9.4).
type AsyncMISProcess struct {
	cfg       MISConfig
	wake      int
	sched     *misSchedule // shared immutable table (see tables.go)
	listenLen int
	epochLen  int

	awake      bool
	epochStart int // global round at which the current epoch began
	out        int
	joined     bool
	misSet     *detector.Set
	epochs     int // epochs started, for instrumentation
	finished   bool
	decided    int // local round at which the output was fixed, -1 before

	// Cached immutable outgoing messages (identical every round).
	contMsg *contenderMsg
	annMsg  *announceMsg
}

var _ sim.Process = (*AsyncMISProcess)(nil)

// NewAsyncMISProcess returns a process that wakes at global round wakeRound.
func NewAsyncMISProcess(cfg MISConfig, wakeRound int) (*AsyncMISProcess, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := misScheduleFor(cfg.N, cfg.Params)
	listen := scaled(cfg.Params.Listen, s.logN*s.logN)
	return &AsyncMISProcess{
		cfg:       cfg,
		wake:      wakeRound,
		sched:     s,
		listenLen: listen,
		epochLen:  listen + (s.phases+1)*s.phaseLen,
		out:       sim.Undecided,
		misSet:    detector.NewSet(cfg.N),
		decided:   -1,
	}, nil
}

// Output implements sim.Process.
func (p *AsyncMISProcess) Output() int { return p.out }

// Done implements sim.Process. An MIS member is never done — it announces
// forever, as Section 9 requires — so executions are bounded by the runner's
// round cap or an all-decided observer.
func (p *AsyncMISProcess) Done() bool { return p.finished }

// InMIS reports whether the process joined the MIS.
func (p *AsyncMISProcess) InMIS() bool { return p.joined }

// MISSet returns M_u (owned by the process).
func (p *AsyncMISProcess) MISSet() *detector.Set { return p.misSet }

// EpochsStarted returns how many epochs the process has begun, a measure of
// how often it was knocked back.
func (p *AsyncMISProcess) EpochsStarted() int { return p.epochs }

// DecisionLatency returns the number of local rounds (since waking) the
// process needed to fix its output, or -1 while undecided. Theorem 9.4
// bounds this by O(log³ n) w.h.p.
func (p *AsyncMISProcess) DecisionLatency() int { return p.decided }

// Broadcast implements sim.Process: an unwoken process sleeps to its wake-up
// round and a listening process to the end of its listening phase — in both
// states Broadcast returns nil without touching state or randomness. A
// knock-back during the sleep only restarts the listening phase, which keeps
// the process silent even longer, so an early declared wake is always safe
// (the process simply declares a new sleep).
func (p *AsyncMISProcess) Broadcast(round int) (sim.Message, int) {
	if round < p.wake {
		return nil, p.wake
	}
	if !p.awake {
		p.awake = true
		p.epochStart = round
		p.epochs = 1
	}
	if p.out == 0 {
		return nil, round + 1
	}
	if p.joined {
		// Permanent announcement duty.
		if p.cfg.Rng.Float64() < 0.5 {
			return p.announce(), round + 1
		}
		return nil, round + 1
	}
	pos := round - p.epochStart
	if pos < p.listenLen {
		// Listening: silent at least until the phase ends. The local
		// clock is derived from the global round, so it keeps running
		// while the engine skips the sleeping process.
		return nil, round + p.listenLen - pos
	}
	pos -= p.listenLen
	phase := pos / p.sched.phaseLen
	if phase < p.sched.phases {
		if p.cfg.Rng.Float64() < p.sched.probs[phase] {
			return p.contender(), round + 1
		}
		return nil, round + 1
	}
	// Reaching the announcement phase means the process survived every
	// competition phase of this epoch: it joins the MIS.
	p.joined = true
	p.out = 1
	p.misSet.Add(p.cfg.ID)
	p.decided = round - p.wake
	if p.cfg.Rng.Float64() < 0.5 {
		return p.announce(), round + 1
	}
	return nil, round + 1
}

func (p *AsyncMISProcess) detLabelAsync() *detector.Set {
	if p.cfg.LabelMessages {
		return p.cfg.Detector
	}
	return nil
}

// contender returns the process's (cached) competition message.
func (p *AsyncMISProcess) contender() *contenderMsg {
	if p.contMsg == nil {
		p.contMsg = newContender(p.cfg.N, p.cfg.ID, p.detLabelAsync())
	}
	return p.contMsg
}

// announce returns the process's (cached) MIS announcement message.
func (p *AsyncMISProcess) announce() *announceMsg {
	if p.annMsg == nil {
		p.annMsg = newAnnounce(p.cfg.N, p.cfg.ID, p.detLabelAsync())
	}
	return p.annMsg
}

// Receive implements sim.Process.
func (p *AsyncMISProcess) Receive(round int, msg sim.Message) {
	if !p.awake || p.joined || p.out == 0 {
		return
	}
	switch m := msg.(type) {
	case *contenderMsg:
		if m.from == p.cfg.ID || !p.keepAsync(m.from, m.det) {
			return
		}
		p.restartEpoch(round)
	case *announceMsg:
		if m.from == p.cfg.ID || !p.keepAsync(m.from, m.det) {
			return
		}
		p.misSet.Add(m.from)
		p.out = 0
		p.decided = round - p.wake
		p.finished = true
	}
}

func (p *AsyncMISProcess) keepAsync(from int, label *detector.Set) bool {
	switch p.cfg.Filter {
	case FilterNone:
		return true
	case FilterMutual:
		return p.cfg.Detector.Contains(from) && label.Contains(p.cfg.ID)
	default:
		return p.cfg.Detector.Contains(from)
	}
}

// restartEpoch knocks the process back to the start of a fresh epoch,
// beginning with a new listening phase in the next round.
func (p *AsyncMISProcess) restartEpoch(round int) {
	p.epochStart = round + 1
	p.epochs++
}
