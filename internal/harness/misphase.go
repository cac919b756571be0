package harness

import (
	"math/rand/v2"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/sim"
)

// The MIS phase. The Section 5 CCDS and its naive baseline open with the
// Section 4 MIS as a subroutine, and on one instance, seed and adversary
// that opening is bit for bit the same execution for both. runFixed splits
// them at the MIS schedule end (the cut): stage 1 is a plain MIS execution
// up to the cut, stage 2 resumes the algorithm's own processes there. The
// stage-1 outcome is memoized on the shared Instance, so a sweep's ccds
// and baseline children, or a b axis over one (instance, seed), compute
// the phase once. A standalone MIS neither reads nor fills it: it stops at
// its decided round, before the cut (see runFixed).
//
// The cut is sound because no MIS wake round passes the MIS schedule end:
// at the cut every process is awake and none is done, and every
// CCDS-family output is still undecided (the search's first round sets
// them). The memo is sound because, given the instance, the key below
// fixes every coin and every reception of the phase; it is used only when
// misPhaseKey says so.

// advKind names an adversary that keeps no per-round state, so one MIS
// phase under it serves every execution under the same kind. Full and
// CollisionSeeking are assumed bound to the scenario's network, as
// NewFull and NewCollisionSeeking build them.
type advKind uint8

const (
	advNone advKind = iota
	advFull
	advCollision
)

// statelessKind returns the kind of a, and false for any other adversary:
// one whose reach sets depend on earlier rounds or its own randomness
// (uniform, bursty), or on parameters a kind cannot name (the
// clique-isolating bridge).
func statelessKind(a adversary.Adversary) (advKind, bool) {
	switch a.(type) {
	case nil, adversary.None:
		return advNone, true
	case *adversary.Full:
		return advFull, true
	case *adversary.CollisionSeeking:
		return advCollision, true
	}
	return 0, false
}

// misPhaseKey identifies an MIS phase on one instance. The message bound
// stays out of it: the CCDS family's least bound exceeds the MIS messages'
// size, so the bound cannot change the phase.
type misPhaseKey struct {
	seed   uint64
	params core.Params
	adv    advKind
}

// misPhaseKey returns the memo key of the scenario's MIS phase, and false
// when the phase may not be shared: the scenario does not run on its
// shared instance unchanged, an Observer watches it, or its adversary keeps
// per-round state. Callers split only full-schedule runs, so the MIS phase
// is always whole.
func (s *Scenario) misPhaseKey() (misPhaseKey, bool) {
	adv, ok := statelessKind(s.Adv)
	if !ok || s.Observer != nil || !s.onShared() {
		return misPhaseKey{}, false
	}
	return misPhaseKey{seed: s.Seed, params: s.params(), adv: adv}, true
}

// misPhase brings the MIS subroutines mis, whose randomness streams are
// pcgs, to round cut and returns stage 1's counters. When the scenario may
// share its phase, the outcome comes from the instance's memo, which the
// first eligible execution fills; otherwise stage 1 runs inline, on the
// scenario's own adversary and Observer, which see the call sequence of an
// unsplit execution.
func (s *Scenario) misPhase(mis []*core.MISProcess, pcgs []rand.PCG, cut int) (sim.Stats, error) {
	stage1 := func() (sim.Stats, error) {
		procs := make([]sim.Process, len(mis))
		for v, p := range mis {
			procs[v] = p
		}
		runner, err := sim.NewRunner(s.config(procs, cut))
		if err != nil {
			return sim.Stats{}, err
		}
		return runner.Run()
	}
	key, ok := s.misPhaseKey()
	if !ok {
		return stage1()
	}
	o, hit, err := s.Shared.memoMIS(key, func() (*misOutcome, error) {
		st, err := stage1()
		if err != nil {
			return nil, err
		}
		return recordMIS(mis, pcgs, st), nil
	})
	if err != nil {
		return sim.Stats{}, err
	}
	if hit {
		o.restore(mis, pcgs)
	}
	return o.stats, nil
}

// misOutcome is a memoized MIS phase: stage 1's counters (its DecidedRound
// is the MIS's) and, per node, what the CCDS family reads of its MIS
// subroutine and the stream position its search resumes from. It is
// immutable once published.
type misOutcome struct {
	stats sim.Stats
	nodes []misNode
	// ids holds every node's M_u back to back: node v's ends at
	// nodes[v].end and starts where node v-1's ends.
	ids []int32
}

// misNode is one node's share of a misOutcome.
type misNode struct {
	pcg   rand.PCG // the process's PCG at the cut
	end   int32    // end of its M_u in misOutcome.ids
	epoch int32    // joining epoch, or -1
	out   int8     // output
}

// misNodeBytes is the size of a misNode: a 16-byte PCG and three fields
// padded to the next 8 bytes.
const misNodeBytes = 32

// recordMIS records the state stage 1 left the subroutines mis in.
func recordMIS(mis []*core.MISProcess, pcgs []rand.PCG, st sim.Stats) *misOutcome {
	outs := make([]core.MISOutcome, len(mis))
	total := 0
	for v, p := range mis {
		outs[v] = p.Outcome()
		total += len(outs[v].Members)
	}
	o := &misOutcome{stats: st, nodes: make([]misNode, len(mis)), ids: make([]int32, 0, total)}
	for v, r := range outs {
		for _, id := range r.Members {
			o.ids = append(o.ids, int32(id))
		}
		o.nodes[v] = misNode{pcg: pcgs[v], end: int32(len(o.ids)), epoch: int32(r.JoinedEpoch), out: int8(r.Out)}
	}
	return o
}

// restore puts the undriven subroutines mis into the recorded state and
// moves their streams pcgs to the recorded positions.
func (o *misOutcome) restore(mis []*core.MISProcess, pcgs []rand.PCG) {
	var members []int
	start := int32(0)
	for v, p := range mis {
		nd := &o.nodes[v]
		members = members[:0]
		for _, id := range o.ids[start:nd.end] {
			members = append(members, int(id))
		}
		start = nd.end
		p.Resume(core.MISOutcome{Out: int(nd.out), Members: members, JoinedEpoch: int(nd.epoch)})
		pcgs[v] = nd.pcg
	}
}

// misSlot is an instance's one memoized MIS phase.
type misSlot struct {
	key  misPhaseKey
	done chan struct{} // closed once out is final
	out  *misOutcome   // nil if the claimer's stage 1 failed
}

// memoMIS returns the instance's MIS phase for key. The first caller of
// an empty slot claims it for its key and fills it with fill; callers with
// the same key wait for that fill, and hit reports that the outcome came
// from it. A caller whose key differs from the slot's runs fill unshared,
// as does every waiter when the claimer's fill fails or panics, which
// empties the slot again: a failed phase is never stored. At most one
// phase is kept per instance, so its weight, which Instance.bytes charges
// up front, bounds what the memo pins.
func (i *Instance) memoMIS(key misPhaseKey, fill func() (*misOutcome, error)) (o *misOutcome, hit bool, err error) {
	i.misMu.Lock()
	slot := i.mis
	if slot == nil {
		slot = &misSlot{key: key, done: make(chan struct{})}
		i.mis = slot
		i.misMu.Unlock()
		defer close(slot.done)
		defer func() {
			if slot.out == nil {
				i.misMu.Lock()
				i.mis = nil
				i.misMu.Unlock()
			}
		}()
		o, err = fill()
		if err == nil {
			slot.out = o
		}
		return o, false, err
	}
	i.misMu.Unlock()
	if slot.key == key {
		<-slot.done
		if slot.out != nil {
			return slot.out, true, nil
		}
	}
	o, err = fill()
	return o, false, err
}
