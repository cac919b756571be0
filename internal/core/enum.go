package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"dualradio/internal/detector"
	"dualradio/internal/sim"
)

// enumConnect is the neighbor-enumeration connect procedure of Section 6:
// having built a dominating structure (the iterated MIS, or a single MIS for
// the naive baseline), every dominator dedicates a broadcast slot to each of
// its link-detector neighbors so the dominators can learn every other
// dominator within 3 hops together with a path in H. It is deliberately
// simple and slow — O(Δ·polylog n) — because the Section 7 lower bound rules
// out anything faster once detectors may contain mistakes.
//
// Phases, all built from bounded-broadcast slots:
//
//	0: dominators transmit their detector lists (chunked); neighbors learn
//	   their slot rank in each dominator's list, and adjacent dominators
//	   learn of each other directly.
//	A: in slot k, the rank-k neighbor of any dominator announces its id
//	   and masters (dominators covering it).
//	B: in slot k, the same process announces every dominator it heard of
//	   in phase A, each with a witness neighbor on the path.
//	C: dominators announce their selected connecting paths; first-hop
//	   relays join the CCDS.
//	D: first-hop relays forward the selection to second-hop relays.
type enumConnect struct {
	id     int
	n      int
	b      int
	delta  int
	det    *detector.Set
	params Params
	rng    *rand.Rand
	mutual bool          // label messages and require mutual detector membership
	sched  *enumSchedule // shared immutable table (see tables.go)

	started   bool
	dominator bool
	masters   []int
	joined    func() // callback when this process joins the CCDS

	// ranks caches the announcement slots this covered process owns (its
	// positions in its masters' detector lists), sorted ascending. Computed
	// lazily once phase A begins — phase-0 chunks stop arriving there, so
	// the slot set is final. nil = not yet computed (empty = no slots).
	ranks      []int
	ranksReady bool

	// Covered-process state.
	domList map[int][]int // dominator u -> sorted detector list of u
	heard   map[int]int   // dominator x -> witness (0 = x is my master)
	forward []int         // second-hop relays to notify in phase D
	isDom   map[int]bool  // senders of phase-0 chunks (dominators)

	// Dominator state.
	paths map[int]pathChoice // dominator x -> selected path
	sel   []pathChoice       // frozen selection for phase C

	// Payloads built once per process, at the first broadcast that needs
	// them, from state that is final by then (nil = not built yet).
	chunks0   [][]int      // phase-0 detector chunks (the detector set is immutable)
	summary   []domWitness // phase-B summary (heard is final once phase A ends)
	fwdChunks [][]int      // phase-D relay chunks (forward is final at the phase-D edge)
}

// enumStagger is the number of id-residue groups used to stagger the phases
// in which every dominator (or relay) would otherwise broadcast
// concurrently. Phases A/B are already serialized by neighbor rank; phases
// 0, C, and D have dominator-level contention, which can exceed the
// bounded-broadcast window's δ in sparse networks where the dominating
// structure is large.
const enumStagger = 8

// enumSchedule is the fixed round layout of the connect procedure.
type enumSchedule struct {
	bb      int
	capIDs  int
	chunks0 int // detector-list chunks
	chunkB  int // summary chunks per phase-B slot
	chunksC int
	chunksD int
	p0Len   int
	pALen   int
	pBLen   int
	pCLen   int
	pDLen   int
	total   int
}

func newEnumSchedule(n, delta, b int, p Params) (enumSchedule, error) {
	overhead := messageOverheadBits(n)
	if b < overhead+idBits(n) {
		return enumSchedule{}, fmt.Errorf("core: message bound b=%d bits cannot carry an id (needs >= %d)", b, overhead+idBits(n))
	}
	s := enumSchedule{capIDs: (b - overhead) / idBits(n)}
	// One δ level above the CCDS search phases: rank slots can still be
	// shared by the neighbors of several nearby dominators.
	s.bb = bbLen(n, p, p.DeltaBB+1)
	s.chunks0 = (delta + 1 + s.capIDs - 1) / s.capIDs
	perMsgB := s.capIDs / 2
	if perMsgB < 1 {
		perMsgB = 1
	}
	s.chunkB = (p.MaxMasters + perMsgB - 1) / perMsgB
	perMsgC := s.capIDs / 3
	if perMsgC < 1 {
		perMsgC = 1
	}
	s.chunksC = (p.MaxMasters + perMsgC - 1) / perMsgC
	s.chunksD = (p.MaxMasters + s.capIDs - 1) / s.capIDs
	s.p0Len = enumStagger * s.chunks0 * s.bb
	s.pALen = delta * s.bb
	s.pBLen = delta * s.chunkB * s.bb
	s.pCLen = enumStagger * s.chunksC * s.bb
	s.pDLen = enumStagger * s.chunksD * s.bb
	s.total = s.p0Len + s.pALen + s.pBLen + s.pCLen + s.pDLen
	return s, nil
}

// newEnumConnect prepares the procedure; start is deferred until the first
// round so the caller can finish its dominating-structure phase first.
func newEnumConnect(id, n, b, delta int, det *detector.Set, p Params,
	rng *rand.Rand, mutual bool, joined func()) (*enumConnect, error) {
	sched, err := enumScheduleFor(n, delta, b, p)
	if err != nil {
		return nil, err
	}
	return &enumConnect{
		id: id, n: n, b: b, delta: delta,
		det: det, params: p, rng: rng, mutual: mutual,
		sched: sched, joined: joined,
	}, nil
}

// start fixes the dominator flag and master list for the procedure.
func (e *enumConnect) start(dominator bool, masters []int) {
	e.started = true
	e.dominator = dominator
	e.masters = append([]int(nil), masters...)
	sort.Ints(e.masters)
	e.domList = make(map[int][]int)
	e.heard = make(map[int]int)
	e.isDom = make(map[int]bool)
	e.paths = make(map[int]pathChoice)
	for _, x := range e.masters {
		e.heard[x] = 0 // reachable directly: x is my master
	}
}

func (e *enumConnect) label() *detector.Set {
	if e.mutual {
		return e.det
	}
	return nil
}

func (e *enumConnect) keep(from int, label *detector.Set) bool {
	if !e.det.Contains(from) {
		return false
	}
	if e.mutual {
		return label.Contains(e.id)
	}
	return true
}

// phase boundaries, as offsets into the procedure.
func (e *enumConnect) boundaries() (a, b, c, d int) {
	a = e.sched.p0Len
	b = a + e.sched.pALen
	c = b + e.sched.pBLen
	d = c + e.sched.pCLen
	return a, b, c, d
}

// broadcastRound emits this round's message, drawing the round's coin; t is
// the procedure-relative round. It is the per-round drive Broadcast wraps.
func (e *enumConnect) broadcastRound(t int) sim.Message {
	bA, bB, bC, bD := e.boundaries()
	coin := e.rng.Float64() < 0.5
	switch {
	case t < bA:
		if !e.dominator || !coin {
			return nil
		}
		// Phase 0 is staggered: dominators in id-residue group g transmit
		// only during group g's window, bounding mutual contention.
		groupLen := e.sched.chunks0 * e.sched.bb
		if t/groupLen != e.id%enumStagger {
			return nil
		}
		// Only the detector list is transmitted: ranks index into it, so
		// it must have at most Δ entries (one announcement slot each).
		// Receivers learn the sender's dominator status from the message
		// itself.
		slot := (t % groupLen) / e.sched.bb
		chunks := e.detChunks()
		if slot >= len(chunks) {
			return nil
		}
		return newBannedChunk(e.n, e.id, slot, chunks[slot], e.label())
	case t < bB:
		if e.dominator || !coin {
			return nil
		}
		slot := (t - bA) / e.sched.bb
		if !e.hasRank(slot) {
			return nil
		}
		return newAnnA(e.n, e.id, e.cappedMasters(), e.label())
	case t < bC:
		if e.dominator || !coin {
			return nil
		}
		rel := t - bB
		slot := rel / (e.sched.chunkB * e.sched.bb)
		sub := (rel % (e.sched.chunkB * e.sched.bb)) / e.sched.bb
		if !e.hasRank(slot) {
			return nil
		}
		return e.buildSummary(sub)
	case t < bD:
		if !e.dominator {
			return nil
		}
		if e.sel == nil {
			e.freezeSelection()
		}
		if !coin {
			return nil
		}
		groupLen := e.sched.chunksC * e.sched.bb
		if (t-bC)/groupLen != e.id%enumStagger {
			return nil
		}
		sub := ((t - bC) % groupLen) / e.sched.bb
		return e.buildSelPaths(sub)
	default:
		if e.dominator || len(e.forward) == 0 || !coin {
			return nil
		}
		groupLen := e.sched.chunksD * e.sched.bb
		if (t-bD)/groupLen != e.id%enumStagger {
			return nil
		}
		return e.buildRelaySel(((t - bD) % groupLen) / e.sched.bb)
	}
}

// Broadcast is broadcastRound plus a wake round for the engine's sleep
// calendar (see sim.Process). The connect procedure has long
// provably-silent stretches — covered processes through phase 0 and phase C,
// dominators through phases A/B/D and outside their stagger windows, covered
// processes between their rank slots.
//
// broadcastRound draws one probability-1/2 coin every round, silent or not
// (the schedule predates sleeping), so unlike the MIS and banned-list CCDS
// processes the silent stretches are not randomness-free. To keep skipped
// executions bit-identical, Broadcast pre-consumes the skipped rounds' coins
// before declaring the sleep — the coin pre-consumption rule of the
// sim.Process contract. Burning a draw is several times cheaper than an
// engine dispatch into broadcastRound's schedule resolution, and the wake
// calendar additionally keeps the slept process out of the round loop
// entirely.
func (e *enumConnect) Broadcast(t int) (sim.Message, int) {
	m := e.broadcastRound(t)
	if m != nil {
		// The engine only honors a sleep window on silent rounds, so
		// burning coins here would double-consume them.
		return m, t + 1
	}
	w := e.nextPossible(t+1, t)
	for k := t + 1; k < w; k++ {
		e.rng.Float64()
	}
	return m, w
}

// nextPossible returns the earliest round >= from at which this process
// might broadcast, capped at the schedule end. now is the round whose
// Broadcast just ran: projections may only rely on state that no reception
// at rounds >= now can change. Two kinds of state settle at phase edges —
// rank slots become final at bA (phase-0 chunks stop), the phase-D forward
// list at bD (phase-C selections stop) — so projections from before those
// edges conservatively wake at the edge (or at the fixed stagger window
// start) and re-evaluate there. Waking early is always safe: an awake round
// draws its own coin exactly as the per-round broadcastRound drive would.
func (e *enumConnect) nextPossible(from, now int) int {
	s := e.sched
	total := s.total
	bA, bB, bC, bD := e.boundaries()
	t := from
	for t < total {
		switch {
		case t < bA:
			if !e.dominator {
				t = bA
				continue
			}
			gl := s.chunks0 * s.bb
			lo := (e.id % enumStagger) * gl
			switch {
			case t < lo:
				t = lo
			case t < lo+gl:
				return t
			default:
				t = bA
			}
		case t < bB:
			if e.dominator {
				t = bC // dominators are silent through phases A and B
				continue
			}
			if now < bA {
				return t // ranks not final yet: wake at the phase edge
			}
			slot := (t - bA) / s.bb
			next, ok := e.nextRankSlot(slot)
			if !ok {
				t = bB
				continue
			}
			if next == slot {
				return t
			}
			t = bA + next*s.bb
		case t < bC:
			if e.dominator {
				t = bC
				continue
			}
			slotLen := s.chunkB * s.bb
			slot := (t - bB) / slotLen
			next, ok := e.nextRankSlot(slot)
			if !ok {
				t = bD // covered: silent through phase C
				continue
			}
			if next == slot {
				return t
			}
			t = bB + next*slotLen
		case t < bD:
			if !e.dominator {
				t = bD
				continue
			}
			gl := s.chunksC * s.bb
			lo := bC + (e.id%enumStagger)*gl
			switch {
			case t < lo:
				t = lo
			case t < lo+gl:
				return t
			default:
				return total // dominators are silent in phase D
			}
		default:
			if e.dominator {
				return total
			}
			gl := s.chunksD * s.bb
			lo := bD + (e.id%enumStagger)*gl
			if t >= lo+gl {
				return total // own window passed: silent for good
			}
			if t < lo {
				t = lo
			}
			if now < bD {
				return t // forward list not final yet: wake at the window
			}
			if len(e.forward) == 0 {
				return total
			}
			return t
		}
	}
	return total
}

// hasRank reports whether this process owns announcement slot k for any of
// its masters (k is its 0-based position in the master's sorted detector
// list, as learned in phase 0). It shares the cached slot set with the
// sleep projection (nextRankSlot), so Broadcast and nextPossible can never
// disagree about slot ownership. Only called from phase A on, where the
// slot set is final.
func (e *enumConnect) hasRank(k int) bool {
	ranks := e.rankSlots()
	i := sort.SearchInts(ranks, k)
	return i < len(ranks) && ranks[i] == k
}

// rankSlots returns the sorted distinct announcement slots this process
// owns, restricted to the schedule's delta slot windows. Must only be
// called from phase A on, when domList and masters are final.
func (e *enumConnect) rankSlots() []int {
	if !e.ranksReady {
		e.ranksReady = true
		for _, u := range e.masters {
			list := e.domList[u]
			i := sort.SearchInts(list, e.id)
			if i < len(list) && list[i] == e.id && i < e.delta {
				e.ranks = append(e.ranks, i)
			}
		}
		sort.Ints(e.ranks)
		e.ranks = slices.Compact(e.ranks)
	}
	return e.ranks
}

// nextRankSlot returns the smallest owned slot >= k, or ok=false when none
// remains.
func (e *enumConnect) nextRankSlot(k int) (int, bool) {
	ranks := e.rankSlots()
	i := sort.SearchInts(ranks, k)
	if i == len(ranks) {
		return 0, false
	}
	return ranks[i], true
}

// cappedMasters returns up to MaxMasters master ids for announcement.
func (e *enumConnect) cappedMasters() []int {
	m := e.masters
	if len(m) > e.params.MaxMasters {
		m = m[:e.params.MaxMasters]
	}
	return m
}

// detChunks returns the chunked detector list phase 0 transmits, built on
// first use: the detector set is immutable.
func (e *enumConnect) detChunks() [][]int {
	if e.chunks0 == nil {
		e.chunks0 = chunkify(e.det.IDs(), e.sched.capIDs)
		if e.chunks0 == nil {
			e.chunks0 = [][]int{}
		}
	}
	return e.chunks0
}

// buildSummary emits chunk sub of the phase-B summary: every known
// dominator with its witness. When the MaxMasters cap truncates, direct
// masters (witness 0, yielding the shortest paths) are kept first. heard
// is final once phase A ends, so the sorted summary is built on the first
// phase-B broadcast and every chunk is a window into it.
func (e *enumConnect) buildSummary(sub int) sim.Message {
	if e.summary == nil {
		doms := make([]int, 0, len(e.heard))
		for x := range e.heard {
			doms = append(doms, x)
		}
		sort.Slice(doms, func(i, j int) bool {
			wi, wj := e.heard[doms[i]], e.heard[doms[j]]
			if (wi == 0) != (wj == 0) {
				return wi == 0
			}
			return doms[i] < doms[j]
		})
		if len(doms) > e.params.MaxMasters {
			doms = doms[:e.params.MaxMasters]
		}
		e.summary = make([]domWitness, 0, len(doms))
		for _, x := range doms {
			e.summary = append(e.summary, domWitness{Dom: x, Witness: e.heard[x]})
		}
	}
	perMsg := e.sched.capIDs / 2
	if perMsg < 1 {
		perMsg = 1
	}
	lo := sub * perMsg
	if lo >= len(e.summary) {
		return nil
	}
	hi := min(lo+perMsg, len(e.summary))
	return newAnnB(e.n, e.id, e.summary[lo:hi], e.label())
}

// buildRelaySel emits chunk sub of this relay's phase-D forward list. The
// list is final at the phase-D edge, so it is chunked on the first phase-D
// broadcast.
func (e *enumConnect) buildRelaySel(sub int) sim.Message {
	if e.fwdChunks == nil {
		e.fwdChunks = chunkify(append([]int(nil), e.forward...), e.sched.capIDs)
	}
	if sub >= len(e.fwdChunks) {
		return nil
	}
	return newRelaySel(e.n, e.id, e.fwdChunks[sub], e.label())
}

// freezeSelection fixes the dominator's connecting paths for phase C,
// preferring shorter paths when the MaxMasters cap truncates.
func (e *enumConnect) freezeSelection() {
	doms := make([]int, 0, len(e.paths))
	for x := range e.paths {
		doms = append(doms, x)
	}
	sort.Slice(doms, func(i, j int) bool {
		hi, hj := hops(e.paths[doms[i]]), hops(e.paths[doms[j]])
		if hi != hj {
			return hi < hj
		}
		return doms[i] < doms[j]
	})
	if len(doms) > e.params.MaxMasters {
		doms = doms[:e.params.MaxMasters]
	}
	e.sel = make([]pathChoice, 0, len(doms))
	for _, x := range doms {
		e.sel = append(e.sel, e.paths[x])
	}
}

// buildSelPaths emits chunk sub of the dominator's selection.
func (e *enumConnect) buildSelPaths(sub int) sim.Message {
	perMsg := e.sched.capIDs / 3
	if perMsg < 1 {
		perMsg = 1
	}
	lo := sub * perMsg
	if lo >= len(e.sel) {
		return nil
	}
	hi := lo + perMsg
	if hi > len(e.sel) {
		hi = len(e.sel)
	}
	return newSelPaths(e.n, e.id, e.sel[lo:hi], e.label())
}

// Receive handles one reception; t is the procedure-relative round.
func (e *enumConnect) Receive(t int, msg sim.Message) {
	if msg == nil || msg.From() == e.id {
		return
	}
	bA, bB, _, _ := e.boundaries()
	switch m := msg.(type) {
	case *bannedChunkMsg:
		if t >= bA || !e.keep(m.from, m.det) {
			return
		}
		e.isDom[m.from] = true
		if e.dominator {
			// An adjacent dominator: directly connected in H.
			if m.from != e.id {
				e.recordPath(m.from, 0, 0)
			}
			return
		}
		list := mergeSorted(e.domList[m.from], m.IDs)
		e.domList[m.from] = list
		// Phase-0 chunks can arrive from dominators whose MIS
		// announcement was missed; adopt them as masters.
		if !containsInt(e.masters, m.from) {
			e.masters = append(e.masters, m.from)
			sort.Ints(e.masters)
			e.heard[m.from] = 0
		}
	case *annAMsg:
		if !e.keep(m.from, m.det) {
			return
		}
		if e.dominator {
			for _, x := range m.Masters {
				if x != e.id {
					e.recordPath(x, m.from, 0)
				}
			}
			return
		}
		if t < bB { // phase A only
			for _, x := range m.Masters {
				if x == e.id {
					continue
				}
				if _, ok := e.heard[x]; !ok {
					e.heard[x] = m.from
				}
			}
		}
	case *annBMsg:
		if !e.dominator || !e.keep(m.from, m.det) {
			return
		}
		for _, en := range m.Entries {
			if en.Dom == e.id {
				continue
			}
			if en.Witness == 0 {
				e.recordPath(en.Dom, m.from, 0)
			} else {
				e.recordPath(en.Dom, m.from, en.Witness)
			}
		}
	case *selPathsMsg:
		if e.dominator || !e.keep(m.from, m.det) {
			return
		}
		for _, pc := range m.Paths {
			if pc.V != e.id {
				continue
			}
			e.join()
			if pc.W != 0 && !containsInt(e.forward, pc.W) {
				e.forward = append(e.forward, pc.W)
				sort.Ints(e.forward)
			}
		}
	case *relaySelMsg:
		if e.dominator || !e.keep(m.from, m.det) {
			return
		}
		for _, w := range m.Ws {
			if w == e.id {
				e.join()
			}
		}
	}
}

func (e *enumConnect) join() {
	if e.joined != nil {
		e.joined()
	}
}

// recordPath keeps the first (and therefore shortest-discovered) path per
// dominator, preferring direct connections.
func (e *enumConnect) recordPath(x, v, w int) {
	cur, ok := e.paths[x]
	if !ok {
		e.paths[x] = pathChoice{Dom: x, V: v, W: w}
		return
	}
	if hops(pathChoice{Dom: x, V: v, W: w}) < hops(cur) {
		e.paths[x] = pathChoice{Dom: x, V: v, W: w}
	}
}

func hops(p pathChoice) int {
	switch {
	case p.V == 0:
		return 1
	case p.W == 0:
		return 2
	default:
		return 3
	}
}

// Rounds returns the total procedure length.
func (e *enumConnect) Rounds() int { return e.sched.total }

// Paths returns the dominator's selected connecting paths (nil for covered
// processes) for verification.
func (e *enumConnect) Paths() []pathChoice {
	if !e.dominator || e.paths == nil {
		return nil
	}
	var out []pathChoice
	for _, x := range sortedPathKeys(e.paths) {
		out = append(out, e.paths[x])
	}
	return out
}

func sortedPathKeys(m map[int]pathChoice) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func mergeSorted(a, b []int) []int {
	for _, x := range b {
		i := sort.SearchInts(a, x)
		if i == len(a) || a[i] != x {
			a = append(a, 0)
			copy(a[i+1:], a[i:])
			a[i] = x
		}
	}
	return a
}

func containsInt(a []int, x int) bool {
	i := sort.SearchInts(a, x)
	return i < len(a) && a[i] == x
}
