package core

import (
	"math"
	"math/rand/v2"

	"dualradio/internal/sim"
)

// This file implements the leap engine's side of every protocol: the
// sim.LeapBroadcaster methods (BroadcastLeap) that sample each coin-flipping
// stretch's first broadcast round directly from the geometric distribution
// instead of flipping a Bernoulli coin per round. Where the exact drive
// already sleeps through a window, the leap drive shares it and only skips
// the coin burn (the Section 5 and continuous CCDS drives are one function
// each). Leap is statistically equivalent (identical in distribution) but
// intentionally not bit-identical, because the PCG streams are consumed in
// a different order.
//
// The correctness argument, used throughout:
//
//   - Within a stretch of rounds sharing one broadcast probability p, the
//     index of the first success of iid Bernoulli(p) coins is exactly
//     geometric; sampling it in closed form is the same law as flipping the
//     coins one by one. Stretches with different probabilities are sampled
//     one after the other, each with a fresh draw.
//   - A pre-sampled broadcast round can go stale when a reception changes
//     the process's state first (a knockout, a covering announcement, an
//     asynchronous epoch restart). Discarding the stale sample and
//     re-deciding from the current state preserves the law: the discarded
//     coins occupy stream positions the exact schedule would never have
//     consumed after the same state change, each process's stream is
//     private, and the geometric distribution is memoryless.
//   - A pre-sampled round is therefore only honored when the state that
//     selected its probability regime is unchanged at the wake round; every
//     BroadcastLeap below re-runs its eligibility checks before consuming
//     the sample. Forward scans never cross a round at which a reception
//     could change the process's own next action (an epoch start that
//     recomputes activity, the announcement round that decides joining):
//     they stop and wake there instead, so the decision runs on live state.

// leapUnbounded caps closed-form geometric skips so degenerate probabilities
// (p ~ 0) cannot overflow round arithmetic; it is far beyond any schedule or
// round cap the engine accepts.
const leapUnbounded = 1 << 40

// geomSkip returns the number of failures before the first success of iid
// Bernoulli(p) trials, sampled in closed form as floor(ln U / ln(1-p)) with
// U uniform on (0,1]. A return of 0 means "success now" — the exact
// engine's rng.Float64() < p succeeding this round.
func geomSkip(rng *rand.Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return leapUnbounded
	}
	u := 1 - rng.Float64() // Float64 is in [0,1); u is in (0,1]
	k := math.Floor(math.Log(u) / math.Log1p(-p))
	if !(k >= 0) { // also catches NaN
		return 0
	}
	if k > leapUnbounded {
		return leapUnbounded
	}
	return int(k)
}

// slabArena batch-allocates values of one message type. take hands out
// consecutive slots of a slab; reset recycles every slot handed out so far.
type slabArena[T any] struct {
	slab []T
	next int
}

const arenaSlabLen = 8

func (a *slabArena[T]) take() *T {
	if a.next == len(a.slab) {
		a.slab = make([]T, arenaSlabLen)
		a.next = 0
	}
	v := &a.slab[a.next]
	a.next++
	return v
}

func (a *slabArena[T]) reset() { a.next = 0 }

// leapMsgs is a per-process message arena for the leap engine's short-lived
// outgoing messages — the types built fresh per heads round whose receivers
// copy everything they keep (nominate, select, banned-list chunks, and the
// phase-A enumeration announcement; response/relay messages are excluded
// because onRespond retains their id slices). It is reset at every driven
// round: the engine reads a broadcast message only during its round, so the
// previous round's values are dead by then. Exact-engine processes never
// allocate an arena, so recycling cannot perturb bit-identical replays.
type leapMsgs struct {
	nominate slabArena[nominateMsg]
	sel      slabArena[selectMsg]
	chunk    slabArena[bannedChunkMsg]
	annA     slabArena[annAMsg]
	noms     []nomination // reusable nominateMsg entries buffer
}

func (a *leapMsgs) reset() {
	a.nominate.reset()
	a.sel.reset()
	a.chunk.reset()
	a.annA.reset()
}

func (a *leapMsgs) newNominate(n, from int, entries []nomination) *nominateMsg {
	m := a.nominate.take()
	*m = nominateMsg{
		header:  newHeader(n, from, countBits+len(entries)*2*idBits(n), nil),
		Entries: entries,
	}
	return m
}

func (a *leapMsgs) newSelect(n, from, v, w int) *selectMsg {
	m := a.sel.take()
	*m = selectMsg{header: newHeader(n, from, 2*idBits(n), nil), V: v, W: w}
	return m
}

// --- Section 4 MIS ---------------------------------------------------------

var _ sim.LeapBroadcaster = (*MISProcess)(nil)

// BroadcastLeap implements sim.LeapBroadcaster. It scans the schedule
// forward from the driven round, sampling each competition phase's first
// heads round geometrically (a fresh draw per phase, since the probability
// doubles across phases) and the announcement phase's first heads at 1/2.
// Silent regimes — knocked-out competitors, covered processes, one-shot
// members — sleep exactly as the exact engine does, consuming nothing.
// A contender's scan stops at the announcement-phase start (joining is
// decided there, on live state, since a knockout may arrive mid-sleep);
// members scan freely across epochs because no reception can change their
// state. The scan does not use the exact path's incremental cursor: leap
// drives are sparse, so positions are re-derived by division.
func (p *MISProcess) BroadcastLeap(round int) (sim.Message, int) {
	if round >= p.sched.total {
		p.finished = true
		return nil, round + 1
	}
	s := p.sched
	pend := p.leapNext == round
	p.leapNext = -1
	r := round
	for r < s.total {
		off := r % s.epochLen
		phase := off / s.phaseLen
		if off == 0 {
			p.active = p.out == sim.Undecided
		}
		if phase < s.phases {
			// Competition phase.
			if !p.active && p.joinedEpoch < 0 {
				if p.out == 0 {
					return nil, s.total // covered and decided: silent for good
				}
				return nil, r - off + s.epochLen // next epoch start
			}
			if p.joinedEpoch >= 0 && p.cfg.DisableReannounce {
				return nil, s.total
			}
			var k int
			if pend && r == round {
				k = 0 // pre-sampled heads round, still eligible
			} else {
				k = geomSkip(p.cfg.Rng, s.probs[phase])
			}
			phaseEnd := r + s.phaseLen - off%s.phaseLen
			if hr := r + k; hr < phaseEnd {
				if hr == round {
					if p.joinedEpoch >= 0 {
						return p.announce(), round + 1
					}
					return p.contender(), round + 1
				}
				p.leapNext = hr
				return nil, hr
			}
			r = phaseEnd
			continue
		}
		// Announcement phase.
		if p.joinedEpoch < 0 {
			if r > round {
				// A contender may be knocked out between the driven round
				// and the announcement phase: wake there and decide then.
				return nil, r
			}
			if p.active && p.out == sim.Undecided {
				p.join(r / s.epochLen)
			} else {
				if p.out == 0 {
					return nil, s.total
				}
				return nil, r - off + s.epochLen
			}
		}
		if p.cfg.DisableReannounce && r/s.epochLen != p.joinedEpoch {
			return nil, s.total
		}
		var k int
		if pend && r == round {
			k = 0
		} else {
			k = geomSkip(p.cfg.Rng, 0.5)
		}
		epochEnd := r - off + s.epochLen
		if hr := r + k; hr < epochEnd {
			if hr == round {
				return p.announce(), round + 1
			}
			p.leapNext = hr
			return nil, hr
		}
		r = epochEnd
	}
	return nil, s.total
}

// --- Section 9 asynchronous MIS -------------------------------------------

var _ sim.LeapBroadcaster = (*AsyncMISProcess)(nil)

// BroadcastLeap implements sim.LeapBroadcaster. Pre-wake and listening
// stretches sleep exactly as the exact engine does; competition phases are
// sampled geometrically (the scan stops at the announcement-phase start,
// where joining is decided on live state), and a member's permanent
// announcement duty is one geometric draw per broadcast instead of one coin
// per round. A knock-back received mid-sleep moves epochStart, which
// invalidates any pre-sampled heads round; the sample is guarded by the
// epochStart it was taken under and silently discarded on mismatch.
func (p *AsyncMISProcess) BroadcastLeap(round int) (sim.Message, int) {
	if round < p.wake {
		return nil, p.wake
	}
	if !p.awake {
		p.awake = true
		p.epochStart = round
		p.epochs = 1
	}
	if p.out == 0 {
		p.leapNext = -1
		return nil, round + 1
	}
	if p.joined {
		if p.leapNext == round {
			p.leapNext = -1
			return p.announce(), round + 1
		}
		p.leapNext = -1
		if k := geomSkip(p.cfg.Rng, 0.5); k > 0 {
			p.leapNext = round + k
			return nil, round + k
		}
		return p.announce(), round + 1
	}
	pend := p.leapNext == round && p.leapEpochStart == p.epochStart
	p.leapNext = -1
	if pos := round - p.epochStart; pos < p.listenLen {
		return nil, round + p.listenLen - pos
	}
	r := round
	for {
		pos := r - p.epochStart - p.listenLen
		phase := pos / p.sched.phaseLen
		if phase >= p.sched.phases {
			if r > round {
				// Wake at the announcement round; joining is decided there,
				// on state a mid-sleep knock-back may yet change.
				return nil, r
			}
			p.joined = true
			p.out = 1
			p.misSet.Add(p.cfg.ID)
			p.decided = round - p.wake
			if k := geomSkip(p.cfg.Rng, 0.5); k > 0 {
				p.leapNext = round + k
				return nil, round + k
			}
			return p.announce(), round + 1
		}
		var k int
		if pend && r == round {
			k = 0
		} else {
			k = geomSkip(p.cfg.Rng, p.sched.probs[phase])
		}
		phaseEnd := p.epochStart + p.listenLen + (phase+1)*p.sched.phaseLen
		if hr := r + k; hr < phaseEnd {
			if hr == round {
				return p.contender(), round + 1
			}
			p.leapNext = hr
			p.leapEpochStart = p.epochStart
			return nil, hr
		}
		r = phaseEnd
	}
}

// --- Section 5 CCDS --------------------------------------------------------

var _ sim.LeapBroadcaster = (*CCDSProcess)(nil)

// BroadcastLeap implements sim.LeapBroadcaster through the exact path's
// drive (see CCDSProcess.drive): the MIS subroutine delegates to the inner
// process's leap path, phases 1 and 2 are randomness-free while silent and
// therefore distribution-preserving as-is, and phase 3 sleeps through the
// same windows as the exact drive (exploreSilence) without burning the
// skipped rounds' coins.
func (p *CCDSProcess) BroadcastLeap(round int) (sim.Message, int) {
	return p.drive(round, true)
}

// --- Section 6 enumeration connect ----------------------------------------

// BroadcastLeap is the connect procedure's leap path. The exact
// broadcastRound flips its 1/2 coin every round, silent or not, which is why
// the exact Broadcast must pre-burn the skipped rounds' draws; leap abandons
// stream alignment, so ineligible rounds consume nothing and the wake
// projection (nextPossible) is used without the burn loop. Eligible rounds
// flip their coin exactly as the exact engine does, so eligible-round
// behavior is unchanged in distribution.
func (e *enumConnect) BroadcastLeap(t int) (sim.Message, int) {
	if e.arena == nil {
		e.arena = &leapMsgs{}
	}
	e.arena.reset()
	m := e.leapMessage(t)
	if m != nil {
		return m, t + 1
	}
	return nil, e.nextPossible(t+1, t)
}

// leapMessage mirrors broadcastRound's phase logic with the coin drawn only on
// rounds where this process could broadcast at all.
func (e *enumConnect) leapMessage(t int) sim.Message {
	s := e.sched
	bA, bB, bC, bD := e.boundaries()
	switch {
	case t < bA:
		if !e.dominator {
			return nil
		}
		groupLen := s.chunks0 * s.bb
		if t/groupLen != e.id%enumStagger {
			return nil
		}
		if e.rng.Float64() >= 0.5 {
			return nil
		}
		slot := (t % groupLen) / s.bb
		chunks := e.detChunks()
		if slot >= len(chunks) {
			return nil
		}
		m := e.arena.chunk.take()
		*m = bannedChunkMsg{
			header: newHeader(e.n, e.id, countBits*2+len(chunks[slot])*idBits(e.n), e.label()),
			Seq:    slot,
			IDs:    chunks[slot],
		}
		return m
	case t < bB:
		if e.dominator {
			return nil
		}
		slot := (t - bA) / s.bb
		if !e.hasRank(slot) {
			return nil
		}
		if e.rng.Float64() >= 0.5 {
			return nil
		}
		masters := e.cappedMasters()
		m := e.arena.annA.take()
		*m = annAMsg{
			header:  newHeader(e.n, e.id, countBits+len(masters)*idBits(e.n), e.label()),
			Masters: masters,
		}
		return m
	case t < bC:
		if e.dominator {
			return nil
		}
		slot := (t - bB) / (s.chunkB * s.bb)
		if !e.hasRank(slot) {
			return nil
		}
		if e.rng.Float64() >= 0.5 {
			return nil
		}
		sub := ((t - bB) % (s.chunkB * s.bb)) / s.bb
		return e.buildSummary(sub)
	case t < bD:
		if !e.dominator {
			return nil
		}
		if e.sel == nil {
			e.freezeSelection()
		}
		groupLen := s.chunksC * s.bb
		if (t-bC)/groupLen != e.id%enumStagger {
			return nil
		}
		if e.rng.Float64() >= 0.5 {
			return nil
		}
		sub := ((t - bC) % groupLen) / s.bb
		return e.buildSelPaths(sub)
	default:
		if e.dominator || len(e.forward) == 0 {
			return nil
		}
		groupLen := s.chunksD * s.bb
		if (t-bD)/groupLen != e.id%enumStagger {
			return nil
		}
		if e.rng.Float64() >= 0.5 {
			return nil
		}
		return e.buildRelaySel(((t - bD) % groupLen) / s.bb)
	}
}

// --- Baseline, τ, and continuous CCDS --------------------------------------

var _ sim.LeapBroadcaster = (*BaselineCCDSProcess)(nil)

// BroadcastLeap implements sim.LeapBroadcaster by delegating to the inner
// MIS and enumeration leap paths (MIS wake rounds never exceed the MIS
// schedule end, which is exactly where the enumeration takes over).
func (p *BaselineCCDSProcess) BroadcastLeap(round int) (sim.Message, int) {
	misTotal := p.mis.Rounds()
	if round < misTotal {
		return p.mis.BroadcastLeap(round)
	}
	if !p.enterSearch(round) {
		return nil, round + 1
	}
	m, wake := p.enum.BroadcastLeap(round - misTotal)
	return m, misTotal + wake
}

var _ sim.LeapBroadcaster = (*TauCCDSProcess)(nil)

// BroadcastLeap implements sim.LeapBroadcaster. Iteration boundaries are
// always driven — inner MIS leap wakes never exceed the iteration end, and
// established dominators sleep exactly to the next boundary — so the
// per-iteration bookkeeping runs identically to the exact path.
func (p *TauCCDSProcess) BroadcastLeap(round int) (sim.Message, int) {
	misPhase := p.iterations * p.misTotal
	if round < misPhase {
		local := round % p.misTotal
		inner := p.iterationInner(local)
		if inner == nil {
			return nil, round - local + p.misTotal
		}
		msg, wake := inner.BroadcastLeap(local)
		p.noteWin(round)
		return msg, round - local + wake
	}
	if !p.enterSearch(round) {
		return nil, round + 1
	}
	msg, wake := p.enum.BroadcastLeap(round - misPhase)
	return msg, misPhase + wake
}

var _ sim.LeapBroadcaster = (*ContinuousCCDSProcess)(nil)

// BroadcastLeap implements sim.LeapBroadcaster through the exact path's
// period drive (see ContinuousCCDSProcess.drive), delegating to the inner
// CCDS leap path.
func (p *ContinuousCCDSProcess) BroadcastLeap(round int) (sim.Message, int) {
	return p.drive(round, true)
}
