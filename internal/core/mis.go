package core

import (
	"fmt"
	"math/rand/v2"

	"dualradio/internal/detector"
	"dualradio/internal/sim"
)

// FilterMode selects which received messages an algorithm keeps.
type FilterMode int

const (
	// FilterDetector keeps a message iff its sender is in the receiver's
	// link detector set (the Section 4 rule: "processes discard messages
	// received from a process not in its link detector set").
	FilterDetector FilterMode = iota + 1
	// FilterMutual keeps a message iff sender and receiver are in each
	// other's detector sets, i.e. they are H-neighbors. Used by the
	// Section 6 iterated MIS, whose messages are labeled with the
	// sender's detector set.
	FilterMutual
	// FilterNone keeps every message. Used by the Section 9 variant in
	// the classic radio model (G = G'), which needs no topology knowledge.
	FilterNone
)

// MISConfig configures one MIS process.
type MISConfig struct {
	// ID is this process's id in [1, n].
	ID int
	// N is the network size n, known to all processes.
	N int
	// Detector is the process's link detector set L. May be nil only with
	// FilterNone.
	Detector *detector.Set
	// Filter selects the reception filter.
	Filter FilterMode
	// LabelMessages attaches the detector set to outgoing messages
	// (required by FilterMutual receivers).
	LabelMessages bool
	// DisableReannounce is an ablation switch: when set, MIS members stop
	// broadcasting after their joining epoch's announcement phase (the
	// literal one-shot reading of Section 4). Under an adversarial
	// reach-set this loses the robustness that member re-announcement
	// provides, demonstrating why Section 9's "announce forever" rule is
	// load-bearing in the dual graph model.
	DisableReannounce bool
	// Params holds the constant factors.
	Params Params
	// Rng is the process's private randomness stream.
	Rng *rand.Rand
}

func (c *MISConfig) validate() error {
	if c.ID < 1 || c.ID > c.N {
		return fmt.Errorf("core: id %d outside [1,%d]", c.ID, c.N)
	}
	if c.Rng == nil {
		return fmt.Errorf("core: process %d has no RNG", c.ID)
	}
	if c.Detector == nil && c.Filter != FilterNone {
		return fmt.Errorf("core: process %d needs a detector for its filter mode", c.ID)
	}
	if c.Filter == 0 {
		c.Filter = FilterDetector
	}
	return c.Params.Validate()
}

// MISProcess is the Section 4 MIS algorithm with synchronous starts: the
// execution is divided into ℓ_E epochs; each epoch runs ceil(log₂ n)
// competition phases with doubling broadcast probabilities (1/n up to 1/2),
// followed by an announcement phase in which survivors join the MIS and
// announce it.
type MISProcess struct {
	cfg   MISConfig
	sched *misSchedule // shared immutable table (see tables.go)

	out         int
	misSet      *detector.Set // M_u: known MIS members (may include self)
	active      bool
	joinedEpoch int
	finished    bool

	// Schedule cursor: the engine drives Broadcast with consecutive round
	// numbers, so (epoch, phase, offsets) advance incrementally instead of
	// being re-derived with divisions every round. nextRound is the round
	// the cursor state describes; any other round triggers a resync.
	nextRound int
	epoch     int
	off       int // offset within the epoch
	phase     int // off / phaseLen (phases == announcement phase)
	offPhase  int // offset within the current phase

	// Outgoing messages are immutable and identical across rounds for a
	// fixed process, so they are built once and reused.
	contMsg *contenderMsg
	annMsg  *announceMsg
}

var _ sim.Process = (*MISProcess)(nil)

// NewMISProcess validates cfg and returns a ready process.
func NewMISProcess(cfg MISConfig) (*MISProcess, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &MISProcess{
		cfg:         cfg,
		sched:       misScheduleFor(cfg.N, cfg.Params),
		out:         sim.Undecided,
		misSet:      detector.NewSet(cfg.N),
		joinedEpoch: -1,
	}, nil
}

// Rounds returns the algorithm's fixed total length in rounds.
func (p *MISProcess) Rounds() int { return p.sched.total }

// Output implements sim.Process.
func (p *MISProcess) Output() int { return p.out }

// Done implements sim.Process.
func (p *MISProcess) Done() bool { return p.finished }

// InMIS reports whether the process joined the MIS.
func (p *MISProcess) InMIS() bool { return p.out == 1 }

// MISSet returns M_u, the set of known MIS member ids (including the
// process's own id if it joined). The set is owned by the process.
func (p *MISProcess) MISSet() *detector.Set { return p.misSet }

// JoinedEpoch returns the epoch in which the process joined the MIS, or -1.
func (p *MISProcess) JoinedEpoch() int { return p.joinedEpoch }

// MISMessageBits returns the size in bits of every Section 4 MIS message
// in an n-process network when messages carry no detector label: the
// least message bound an unlabeled MIS execution fits in.
func MISMessageBits(n int) int { return tagBits + idBits(n) }

// MessageBits returns the size in bits of every message the process
// sends: contender and announcement share one header, with the detector
// label when messages carry it.
func (p *MISProcess) MessageBits() int { return newHeader(p.cfg.N, p.cfg.ID, 0, p.detLabel()).bits }

// Masters returns the ids of known MIS members other than the process
// itself — for a covered process, the MIS neighbors that dominate it.
func (p *MISProcess) Masters() []int {
	var out []int
	for _, id := range p.misSet.IDs() {
		if id != p.cfg.ID {
			out = append(out, id)
		}
	}
	return out
}

// detLabel returns the detector label to attach to outgoing messages.
func (p *MISProcess) detLabel() *detector.Set {
	if p.cfg.LabelMessages {
		return p.cfg.Detector
	}
	return nil
}

// contender returns the process's (cached) competition message.
func (p *MISProcess) contender() *contenderMsg {
	if p.contMsg == nil {
		p.contMsg = newContender(p.cfg.N, p.cfg.ID, p.detLabel())
	}
	return p.contMsg
}

// announce returns the process's (cached) MIS announcement message.
func (p *MISProcess) announce() *announceMsg {
	if p.annMsg == nil {
		p.annMsg = newAnnounce(p.cfg.N, p.cfg.ID, p.detLabel())
	}
	return p.annMsg
}

// syncCursor re-derives the schedule cursor for an arbitrary round (used
// when Broadcast is not driven with consecutive rounds, e.g. after a resync).
func (p *MISProcess) syncCursor(round int) {
	p.epoch = round / p.sched.epochLen
	p.off = round % p.sched.epochLen
	p.phase = p.off / p.sched.phaseLen
	p.offPhase = p.off % p.sched.phaseLen
}

// advanceCursor moves the schedule cursor to the next round.
func (p *MISProcess) advanceCursor() {
	p.off++
	p.offPhase++
	if p.offPhase == p.sched.phaseLen {
		p.offPhase = 0
		p.phase++
	}
	if p.off == p.sched.epochLen {
		p.off = 0
		p.phase = 0
		p.epoch++
	}
}

// nextEpochStart returns the round at which the next epoch begins, assuming
// the cursor has been advanced past the current round.
func (p *MISProcess) nextEpochStart(round int) int {
	if p.off == 0 {
		return round + 1
	}
	return round + 1 + p.sched.epochLen - p.off
}

// Broadcast implements sim.Process: alongside the round's message it
// reports the earliest round at which the process might broadcast again.
// Knocked-out competitors sleep to their next epoch, covered (output 0)
// processes and one-shot members past their joining epoch sleep to the end
// of the schedule; in all those states Broadcast returns nil without
// consuming randomness, so skipping the calls leaves the execution
// bit-identical.
func (p *MISProcess) Broadcast(round int) (sim.Message, int) {
	if round >= p.sched.total {
		p.finished = true
		return nil, round + 1
	}
	if round != p.nextRound {
		p.syncCursor(round)
	}
	p.nextRound = round + 1
	epoch, off, phase := p.epoch, p.off, p.phase
	p.advanceCursor()

	if off == 0 {
		// Epoch start: a process is active iff M_u contains neither its
		// own id nor a detector neighbor's id — equivalently, iff it has
		// not yet output 0 or 1.
		p.active = p.out == sim.Undecided
	}

	if phase < p.sched.phases {
		// Competition phase `phase`: broadcast probability 2^phase/n,
		// capped at 1/2 as in the paper's final phase.
		//
		// MIS members re-enter every later epoch's competition with the
		// same probability schedule, broadcasting announcements instead
		// of contender messages. This is the paper's Section 9 remedy
		// ("once a process joins the MIS, it must continue to broadcast
		// and announce this information") adapted to the epoch structure:
		// it lets a process whose announcement was jammed by the
		// adversary learn of an established neighbor before it could
		// erroneously join, while preserving the Lemma 4.3 contention
		// profile (members behave exactly like active competitors).
		if !p.active && p.joinedEpoch < 0 {
			if p.out == 0 {
				// Covered and decided: silent for good.
				return nil, p.sched.total
			}
			return nil, p.nextEpochStart(round)
		}
		if p.joinedEpoch >= 0 && p.cfg.DisableReannounce {
			// One-shot member: joining happens in an announcement
			// phase, so any later competition round is past the
			// joining epoch and the process is silent for good.
			return nil, p.sched.total
		}
		if p.cfg.Rng.Float64() < p.sched.probs[phase] {
			if p.joinedEpoch >= 0 {
				return p.announce(), round + 1
			}
			return p.contender(), round + 1
		}
		return nil, round + 1
	}

	// Announcement phase. An active survivor joins the MIS at the first
	// announcement round of its epoch; members announce with probability
	// 1/2 in the announcement phase of every epoch from then on.
	if p.active && p.joinedEpoch < 0 && p.out == sim.Undecided {
		p.join(epoch)
	}
	if p.joinedEpoch < 0 {
		// Not a member: silent through the rest of the announcement
		// phase (and beyond, if already covered).
		if p.out == 0 {
			return nil, p.sched.total
		}
		return nil, p.nextEpochStart(round)
	}
	if p.cfg.DisableReannounce && epoch != p.joinedEpoch {
		return nil, p.sched.total
	}
	if p.cfg.Rng.Float64() < 0.5 {
		return p.announce(), round + 1
	}
	return nil, round + 1
}

func (p *MISProcess) join(epoch int) {
	p.out = 1
	p.misSet.Add(p.cfg.ID)
	p.joinedEpoch = epoch
	p.active = false
}

// keep applies the configured reception filter.
func (p *MISProcess) keep(from int, label *detector.Set) bool {
	switch p.cfg.Filter {
	case FilterNone:
		return true
	case FilterMutual:
		return p.cfg.Detector.Contains(from) && label.Contains(p.cfg.ID)
	default:
		return p.cfg.Detector.Contains(from)
	}
}

// Receive implements sim.Process. Each case compares the concrete sender
// field with the process's id, so the guard makes no interface call; a nil
// message matches no case.
func (p *MISProcess) Receive(round int, msg sim.Message) {
	switch m := msg.(type) {
	case *contenderMsg:
		if m.from == p.cfg.ID || !p.keep(m.from, m.det) {
			return
		}
		// A knocked-out process stays silent for the rest of the epoch.
		if p.active && p.joinedEpoch < 0 {
			p.active = false
		}
	case *announceMsg:
		if m.from == p.cfg.ID || !p.keep(m.from, m.det) {
			return
		}
		p.misSet.Add(m.from)
		if p.out == sim.Undecided {
			p.out = 0
		}
		// An announcement also knocks the receiver out of the current
		// competition: a covered process must not proceed to join.
		if p.joinedEpoch < 0 {
			p.active = false
		}
	}
	_ = round
}
