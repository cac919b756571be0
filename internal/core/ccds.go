package core

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"dualradio/internal/detector"
	"dualradio/internal/sim"
)

// CCDSConfig configures one process of the Section 5 CCDS algorithm.
type CCDSConfig struct {
	// ID is this process's id in [1, n].
	ID int
	// N is the network size.
	N int
	// Delta is the (globally known) maximum degree Δ of the reliable
	// graph; the fixed search-epoch schedule depends on it.
	Delta int
	// B is the message size bound b in bits. It must be large enough to
	// carry at least one id beyond the fixed header overhead
	// (b = Ω(log n), as the paper assumes).
	B int
	// Detector is the process's 0-complete link detector set.
	Detector *detector.Set
	// Params holds the constant factors.
	Params Params
	// Rng is the process's private randomness stream.
	Rng *rand.Rand
}

// ccdsSchedule is the fixed global round layout of the CCDS algorithm: the
// MIS subroutine followed by ℓ_SE search epochs, each with three phases
// (banned-list broadcast, directed-decay nomination, exploration).
type ccdsSchedule struct {
	mis      *misSchedule
	logN     int
	bb       int // bounded-broadcast slot length ℓ_BB(δ)
	capIDs   int // ids per banned-list chunk
	chunks   int // chunk slots needed for Δ+2 ids
	ddLen    int // directed-decay phase length ℓ_DD
	ddPhases int // number of decay phases (= ceil(log₂ n))
	p1Len    int
	p2Len    int
	p3Len    int
	epochLen int
	epochs   int
	total    int
}

// messageOverheadBits is the reserved per-message header budget used when
// computing chunk capacity: type tag, sender id, list counts, and entry
// headers (origin, MIS id, sequence number and batching slack).
func messageOverheadBits(n int) int {
	return tagBits + 4*countBits + 6*idBits(n)
}

func newCCDSSchedule(n, delta, b int, p Params) (ccdsSchedule, error) {
	s := ccdsSchedule{mis: misScheduleFor(n, p), logN: log2Ceil(n)}
	overhead := messageOverheadBits(n)
	if b < overhead+idBits(n) {
		return s, fmt.Errorf("core: message bound b=%d bits cannot carry an id (needs >= %d); the paper assumes b = Ω(log n)", b, overhead+idBits(n))
	}
	s.capIDs = (b - overhead) / idBits(n)
	s.bb = bbLen(n, p, p.DeltaBB)
	// A banned-list delta or a neighbor-set response spans at most Δ+2 ids
	// (an MIS id plus its closed neighborhood).
	s.chunks = (delta + 2 + s.capIDs - 1) / s.capIDs
	s.ddLen = scaled(p.Decay, s.logN)
	s.ddPhases = s.logN
	s.p1Len = s.chunks * s.bb
	s.p2Len = s.ddPhases * (s.ddLen + s.bb)
	s.p3Len = (2 + 2*s.chunks) * s.bb
	s.epochLen = s.p1Len + s.p2Len + s.p3Len
	s.epochs = p.SearchEpochs
	s.total = s.mis.total + s.epochs*s.epochLen
	return s, nil
}

// CCDSRounds returns the fixed total running time of the Section 5 CCDS
// algorithm for the given parameters — O(Δ·log²n/b + log³n) rounds.
func CCDSRounds(n, delta, b int, p Params) (int, error) {
	s, err := ccdsScheduleFor(n, delta, b, p)
	if err != nil {
		return 0, err
	}
	return s.total, nil
}

// searchPhase identifies the position inside one search epoch.
type searchPhase int

const (
	phaseBanned  searchPhase = iota + 1 // phase 1: transmit B_u \ D_u
	phaseDecay                          // phase 2: directed-decay nominations
	phaseExplore                        // phase 3: explore one nomination
)

// locate resolves a search-relative round into (epoch, phase, offset).
func (s *ccdsSchedule) locate(t int) (epoch int, phase searchPhase, off int) {
	epoch = t / s.epochLen
	off = t % s.epochLen
	switch {
	case off < s.p1Len:
		return epoch, phaseBanned, off
	case off < s.p1Len+s.p2Len:
		return epoch, phaseDecay, off - s.p1Len
	default:
		return epoch, phaseExplore, off - s.p1Len - s.p2Len
	}
}

// decayNomination is one simulated covered process of directed-decay.
type decayNomination struct {
	dest      int // destination MIS process
	candidate int // nominated neighbor
	active    bool
}

// relayRecord buffers an exploration response awaiting relay to an origin.
type relayRecord struct {
	misID  int
	chunks map[int][]int // sequence -> ids
}

// CCDSProcess implements the Section 5 CCDS algorithm. It first runs the
// Section 4 MIS as a subroutine; MIS members join the CCDS, then the search
// epochs discover and connect MIS processes within 3 hops via banned-list
// guided exploration.
type CCDSProcess struct {
	cfg   CCDSConfig
	sched *ccdsSchedule // shared immutable table (see tables.go)
	mis   *MISProcess

	out      int
	finished bool

	searchInit bool
	inMIS      bool

	// MIS-node state.
	banned    *detector.Set // B_u
	delivered *detector.Set // D_u
	pending   [][]int       // chunked B_u \ D_u for the current epoch
	nomFrom   int           // nominator heard this epoch (0 = none)
	nomCand   int           // its candidate
	ddHeard   bool          // received a nomination in the current decay phase
	disc      *detector.Set // discovered MIS ids (instrumentation)

	// Covered-node state.
	masters  []int                 // MIS neighbors in G
	isMaster *detector.Set         // same, as a set
	replica  map[int]*detector.Set // B^v_u per master u
	primary  map[int]*detector.Set // P^v_u: epoch-1 copy (the master's neighborhood)
	noms     []decayNomination     // simulated covered processes this epoch
	selected map[int]int           // origin u -> target w (as nominator v)
	queried  map[int]bool          // origins to answer (as explored node w)
	relays   map[int]*relayRecord  // origin u -> buffered response (as v)

	// Schedule cursors: awake stretches are driven with consecutive
	// rounds, so the (epoch, phase, offset) triple and the phase-1 and
	// phase-2 slot/offset pairs advance incrementally instead of being
	// re-derived with divisions every round; each resyncs after a sleep.
	// nextT == -1 forces an initial sync. Phase 3 derives its slot as
	// off/bb: its processes are mostly asleep, so a cursor would resync on
	// nearly every drive.
	nextT    int
	curEpoch int
	curPhase searchPhase
	curOff   int
	p1Slot   int // phase 1 bounded-broadcast slot
	p1In     int // offset within that slot
	ddPhaseC int // phase 2 decay phase
	ddIn     int // offset within decay phase + stop slot
	ddNext   int // expected next phase-2 offset (resync after sleeps)

	// Cached messages: a stop order is constant, and a banned-list chunk
	// is constant within its epoch.
	stopMsg     *stopMsg
	pendingMsgs []*bannedChunkMsg

	// detIDs lists the detector set once (see detectorIDs); respMIS and
	// respChunks hold the phase-3 response content until masters[0] or
	// its primary replica changes (see responseChunks). Relays retain the
	// chunks, so neither slice may be modified or appended to.
	detIDs     []int
	respMIS    int
	respChunks [][]int
}

var _ sim.Process = (*CCDSProcess)(nil)

// NewCCDSProcess validates the configuration and returns a ready process.
func NewCCDSProcess(cfg CCDSConfig) (*CCDSProcess, error) {
	if cfg.Delta < 1 {
		return nil, fmt.Errorf("core: CCDS needs the max degree Δ, got %d", cfg.Delta)
	}
	sched, err := ccdsScheduleFor(cfg.N, cfg.Delta, cfg.B, cfg.Params)
	if err != nil {
		return nil, err
	}
	misCfg := MISConfig{
		ID:       cfg.ID,
		N:        cfg.N,
		Detector: cfg.Detector,
		Filter:   FilterDetector,
		Params:   cfg.Params,
		Rng:      cfg.Rng,
	}
	inner, err := NewMISProcess(misCfg)
	if err != nil {
		return nil, err
	}
	return &CCDSProcess{
		cfg:   cfg,
		sched: sched,
		mis:   inner,
		out:   sim.Undecided,
		nextT: -1,
	}, nil
}

// Rounds returns the algorithm's fixed total length.
func (p *CCDSProcess) Rounds() int { return p.sched.total }

// Output implements sim.Process.
func (p *CCDSProcess) Output() int { return p.out }

// Done implements sim.Process.
func (p *CCDSProcess) Done() bool { return p.finished }

// InMIS reports whether the process joined the underlying MIS.
func (p *CCDSProcess) InMIS() bool { return p.inMIS }

// Discovered returns the set of MIS ids this MIS process discovered through
// exploration (empty for covered processes).
func (p *CCDSProcess) Discovered() []int {
	if p.disc == nil {
		return nil
	}
	return p.disc.IDs()
}

// initSearch snapshots the MIS outcome and initializes search state. Called
// at the first search round.
func (p *CCDSProcess) initSearch() {
	p.searchInit = true
	p.inMIS = p.mis.InMIS()
	if p.inMIS {
		// The banned list starts as the process's own id plus its link
		// detector set (its reliable neighborhood).
		p.banned = p.cfg.Detector.Clone()
		p.banned.Add(p.cfg.ID)
		p.delivered = detector.NewSet(p.cfg.N)
		p.disc = detector.NewSet(p.cfg.N)
		// MIS membership is CCDS membership.
		p.out = 1
		return
	}
	p.masters = p.mis.Masters()
	p.isMaster = detector.SetOf(p.cfg.N, p.masters...)
	p.replica = make(map[int]*detector.Set, len(p.masters))
	p.primary = make(map[int]*detector.Set, len(p.masters))
	for _, u := range p.masters {
		p.replica[u] = detector.NewSet(p.cfg.N)
		p.primary[u] = detector.NewSet(p.cfg.N)
	}
	p.selected = make(map[int]int)
	p.queried = make(map[int]bool)
	p.relays = make(map[int]*relayRecord)
}

// Broadcast implements sim.Process. The search schedule has long
// provably-silent stretches — covered processes during the banned-list
// phase, MIS processes during decay rounds, processes with nothing to
// nominate, and every process outside its phase-3 role — and the reported
// wake round lets the engine skip those calls outright. Phases 1 and 2 are
// randomness-free while silent; phase 3 costs one coin per round, so its
// sleeps pre-consume the skipped rounds' coins (see sendExplore).
func (p *CCDSProcess) Broadcast(round int) (sim.Message, int) {
	if round < p.sched.mis.total {
		// The MIS subroutine's sleep-forever is its own schedule end,
		// which is exactly where the search takes over.
		return p.mis.Broadcast(round)
	}
	if round >= p.sched.total {
		p.finish()
		return nil, round + 1
	}
	if !p.searchInit {
		p.initSearch()
	}
	t := round - p.sched.mis.total
	if t != p.nextT {
		p.curEpoch, p.curPhase, p.curOff = p.sched.locate(t)
	}
	p.nextT = t + 1
	epoch, phase, off := p.curEpoch, p.curPhase, p.curOff
	p.advanceSearchCursor()
	if off == 0 && phase == phaseBanned {
		p.startEpoch(epoch)
	}
	var m sim.Message
	var rel int
	switch phase {
	case phaseBanned:
		m, rel = p.sendBanned(off)
	case phaseDecay:
		m, rel = p.sendDecay(off)
	default:
		m, rel = p.sendExplore(off)
	}
	return m, round + rel
}

// finish fixes the terminal output: any still-undecided process outputs 0.
func (p *CCDSProcess) finish() {
	if !p.finished {
		p.finished = true
		if p.out == sim.Undecided {
			p.out = 0
		}
	}
}

// startEpoch resets per-epoch state and computes the banned-list delta.
func (p *CCDSProcess) startEpoch(epoch int) {
	if p.inMIS {
		diff := p.banned.Diff(p.delivered)
		p.pending = chunkify(diff, p.sched.capIDs)
		p.pendingMsgs = make([]*bannedChunkMsg, len(p.pending))
		p.delivered = p.banned.Clone()
		p.nomFrom, p.nomCand = 0, 0
		p.ddHeard = false
		return
	}
	// Covered process: per-epoch exploration state. Nominations are built
	// later, at the start of phase 2, after phase 1 has delivered the
	// banned lists.
	clear(p.selected)
	clear(p.queried)
	clear(p.relays)
	_ = epoch
}

// startDecay builds this epoch's nominations: one simulated covered process
// per master with a non-banned neighbor to offer.
func (p *CCDSProcess) startDecay() {
	p.noms = p.noms[:0]
	for _, u := range p.masters {
		if cand, ok := p.nominationFor(u); ok {
			p.noms = append(p.noms, decayNomination{dest: u, candidate: cand, active: true})
		}
	}
}

// nominationFor returns the lowest-id detector neighbor of this process not
// present in its replica of master u's banned list.
func (p *CCDSProcess) nominationFor(u int) (int, bool) {
	rep := p.replica[u]
	for _, w := range p.detectorIDs() {
		if !rep.Contains(w) {
			return w, true
		}
	}
	return 0, false
}

// detectorIDs returns the detector set's ids in ascending order, listed
// once per process: the set is never modified. The slice is shared by
// every caller, who must copy it before appending.
func (p *CCDSProcess) detectorIDs() []int {
	if p.detIDs == nil {
		p.detIDs = p.cfg.Detector.IDs()
	}
	return p.detIDs
}

// chunkify sorts ids in place and splits them into chunks of at most
// capIDs entries. Each chunk's capacity ends at its length, so appending
// to one never overwrites the next.
func chunkify(ids []int, capIDs int) [][]int {
	if len(ids) == 0 {
		return nil
	}
	sort.Ints(ids)
	var out [][]int
	for len(ids) > 0 {
		k := capIDs
		if k > len(ids) {
			k = len(ids)
		}
		out = append(out, ids[:k:k])
		ids = ids[k:]
	}
	return out
}

// advanceSearchCursor moves the search-phase cursor to the next round.
func (p *CCDSProcess) advanceSearchCursor() {
	p.curOff++
	switch p.curPhase {
	case phaseBanned:
		if p.curOff == p.sched.p1Len {
			p.curPhase, p.curOff = phaseDecay, 0
		}
	case phaseDecay:
		if p.curOff == p.sched.p2Len {
			p.curPhase, p.curOff = phaseExplore, 0
		}
	default:
		if p.curOff == p.sched.p3Len {
			p.curPhase, p.curOff = phaseBanned, 0
			p.curEpoch++
		}
	}
}

// stop returns the process's (cached) constant stop-order message.
func (p *CCDSProcess) stop() *stopMsg {
	if p.stopMsg == nil {
		p.stopMsg = newStop(p.cfg.N, p.cfg.ID)
	}
	return p.stopMsg
}

// sendBanned implements phase 1: MIS processes bounded-broadcast their
// banned-list delta, one chunk per slot, with probability 1/2 per round.
// sendBanned also reports the number of rounds (>= 1) for which the process
// is guaranteed silent and randomness-free, starting at this one. Covered
// processes sleep through the whole phase; an MIS process whose chunks are
// exhausted sleeps to the first stop slot of phase 2.
func (p *CCDSProcess) sendBanned(off int) (sim.Message, int) {
	if off == 0 {
		p.p1Slot, p.p1In = 0, 0
	}
	slot := p.p1Slot
	if p.p1In++; p.p1In == p.sched.bb {
		p.p1In, p.p1Slot = 0, slot+1
	}
	if !p.inMIS {
		return nil, p.sched.p1Len - off
	}
	if slot >= len(p.pending) {
		return nil, p.sched.p1Len - off + p.sched.ddLen
	}
	if p.cfg.Rng.Float64() >= 0.5 {
		return nil, 1
	}
	if p.pendingMsgs[slot] == nil {
		p.pendingMsgs[slot] = newBannedChunk(p.cfg.N, p.cfg.ID, slot, p.pending[slot], nil)
	}
	return p.pendingMsgs[slot], 1
}

// sendDecay implements phase 2: covered processes run directed-decay to
// deliver one nomination to each neighboring MIS process, and MIS processes
// issue stop orders between decay phases.
// sendDecay also reports the guaranteed-silent stretch (>= 1 rounds): MIS
// processes sleep through decay rounds to the next stop slot (and through
// stop slots they did not hear a nomination for), covered processes with
// nothing to nominate sleep to phase 3, and covered processes skip the stop
// slots between decay phases. Sleeps may land mid-phase, so the slot cursor
// resyncs on a non-consecutive offset.
func (p *CCDSProcess) sendDecay(off int) (sim.Message, int) {
	phaseLen := p.sched.ddLen + p.sched.bb
	switch {
	case off == 0:
		if !p.inMIS {
			p.startDecay()
		}
		p.ddPhaseC, p.ddIn = 0, 0
	case off != p.ddNext:
		p.ddPhaseC, p.ddIn = off/phaseLen, off%phaseLen
	}
	p.ddNext = off + 1
	ddPhase, inPhase := p.ddPhaseC, p.ddIn
	if p.ddIn++; p.ddIn == phaseLen {
		p.ddIn, p.ddPhaseC = 0, ddPhase+1
	}

	if inPhase < p.sched.ddLen {
		if p.inMIS {
			// Decay rounds are listen-only for MIS processes.
			return nil, p.sched.ddLen - inPhase
		}
		if !p.hasActiveNoms() {
			// Nothing to nominate for the rest of the phase: stop
			// orders only deactivate nominations, never revive them.
			return nil, p.sched.p2Len - off
		}
		// Decay rounds: each active simulated covered process broadcasts
		// with probability 2^i/n (precomputed, capped at 1/2); concurrent
		// firings are combined into a single batched message.
		prob := p.sched.mis.probs[ddPhase]
		var entries []nomination
		for i := range p.noms {
			if p.noms[i].active && p.cfg.Rng.Float64() < prob {
				entries = append(entries, nomination{
					Dest:      p.noms[i].dest,
					Candidate: p.noms[i].candidate,
				})
			}
		}
		if len(entries) == 0 {
			return nil, 1
		}
		return newNominate(p.cfg.N, p.cfg.ID, entries), 1
	}
	// Stop slot: an MIS process that heard a nomination during this decay
	// phase bounded-broadcasts a stop order.
	if p.inMIS {
		if !p.ddHeard {
			// Silent until the next stop slot (nominations cannot
			// arrive during a stop slot), or until phase 3.
			rel := phaseLen - inPhase + p.sched.ddLen
			if rest := p.sched.p2Len - off; rest < rel {
				rel = rest
			}
			return nil, rel
		}
		fire := p.cfg.Rng.Float64() < 0.5
		if inPhase == phaseLen-1 {
			// Reset at the end of the slot for the next decay phase.
			p.ddHeard = false
		}
		if fire {
			return p.stop(), 1
		}
		return nil, 1
	}
	// Covered processes are silent in stop slots; wake at the next decay
	// round (or phase 3 after the last slot).
	if p.hasActiveNoms() {
		return nil, phaseLen - inPhase
	}
	return nil, p.sched.p2Len - off
}

// hasActiveNoms reports whether any simulated covered process of this epoch
// is still nominating.
func (p *CCDSProcess) hasActiveNoms() bool {
	for i := range p.noms {
		if p.noms[i].active {
			return true
		}
	}
	return false
}

// sendExplore implements phase 3: select, query, respond, relay — each a
// bounded-broadcast slot (the respond and relay steps span one slot per
// chunk). A process in its role flips its 1/2 slot coin and broadcasts on
// heads; any other process sleeps through the window exploreSilence
// reports. The schedule charges one coin per phase-3 round, silent or not,
// so a sleep first pre-consumes the coins of this round and every skipped
// one, leaving the stream where a per-round drive would.
func (p *CCDSProcess) sendExplore(off int) (sim.Message, int) {
	if rel := p.exploreSilence(off); rel > 0 {
		for k := 0; k < rel; k++ {
			p.cfg.Rng.Float64()
		}
		return nil, rel
	}
	if p.cfg.Rng.Float64() < 0.5 {
		return p.exploreMsg(off / p.sched.bb), 1
	}
	return nil, 1
}

// exploreSilence returns 0 when the process plays a role in phase-3 round
// off, and otherwise the number of rounds (>= 1, never past phase 3) for
// which it is guaranteed silent, starting at this one. Each slot's input is
// final once the previous slot ends — selects arrive only in the select
// slot, queries only in the query slot, responses only in the respond
// slots — so a process without a role sleeps to the next boundary at which
// its role could have changed and re-evaluates there. MIS processes speak
// only in the select slot, and only with a nomination to select.
func (p *CCDSProcess) exploreSilence(off int) int {
	bb := p.sched.bb
	slot := off / bb
	if p.inMIS {
		if slot == 0 && p.nomFrom != 0 {
			return 0
		}
		return p.sched.p3Len - off
	}
	switch {
	case slot == 0: // select: a select may still arrive, wake at the query slot
		return bb - off
	case slot == 1: // query: a query may still arrive, wake at the respond slots
		if len(p.selected) > 0 {
			return 0
		}
		return 2*bb - off
	case slot < 2+p.sched.chunks: // respond: a response may still arrive, wake at the relay slots
		if len(p.queried) > 0 {
			return 0
		}
		return (2+p.sched.chunks)*bb - off
	default: // relay: the relay buffer is final, silent through the rest of phase 3
		if len(p.relays) > 0 {
			return 0
		}
		return p.sched.p3Len - off
	}
}

// exploreMsg builds the phase-3 message of a process whose role in the
// given slot exploreSilence confirmed (nil when its batch is empty).
func (p *CCDSProcess) exploreMsg(slot int) sim.Message {
	switch {
	case slot == 0:
		return newSelect(p.cfg.N, p.cfg.ID, p.nomFrom, p.nomCand)
	case slot == 1:
		return p.buildQuery()
	case slot < 2+p.sched.chunks:
		return p.buildRespond(slot - 2)
	default:
		return p.buildRelay(slot - 2 - p.sched.chunks)
	}
}

// buildQuery batches the exploration requests this nominator received,
// dropping overflow origins (they retry next epoch) to respect b.
func (p *CCDSProcess) buildQuery() sim.Message {
	origins := sortedKeys(p.selected)
	var entries []queryEntry
	// A query with k entries encodes tag + sender + count + 2k ids; the
	// bound is enforced arithmetically instead of building probe messages.
	base := tagBits + idBits(p.cfg.N) + countBits
	for _, u := range origins {
		if base+(len(entries)+1)*2*idBits(p.cfg.N) > p.cfg.B {
			break
		}
		entries = append(entries, queryEntry{Origin: u, Target: p.selected[u]})
	}
	if len(entries) == 0 {
		return nil
	}
	return newQuery(p.cfg.N, p.cfg.ID, entries)
}

// responseChunks returns the MIS id and the chunked id set this explored
// process reports: itself and its neighborhood when it is in the MIS,
// otherwise its lowest-id MIS neighbor x together with the learned replica
// of x's neighborhood (P^w_x). A covered process chunks its answer once
// and again only when onBannedChunk changes x or P^w_x, instead of on
// every respond round.
func (p *CCDSProcess) responseChunks() (int, [][]int, bool) {
	if p.inMIS {
		// Unreachable in practice (an MIS process is always in banned
		// lists and never explored) but kept for safety. The detector
		// ids are shared, so the appended copy is a fresh slice.
		ids := append(append(make([]int, 0, len(p.detectorIDs())+1), p.detectorIDs()...), p.cfg.ID)
		return p.cfg.ID, chunkify(ids, p.sched.capIDs), true
	}
	if len(p.masters) == 0 {
		return 0, nil, false
	}
	if p.respChunks == nil {
		x := p.masters[0]
		ids := p.primary[x].Clone()
		ids.Add(x)
		p.respMIS, p.respChunks = x, chunkify(ids.IDs(), p.sched.capIDs)
	}
	return p.respMIS, p.respChunks, true
}

// buildRespond emits chunk seq of the exploration answer for every querying
// origin that fits in b bits.
func (p *CCDSProcess) buildRespond(seq int) sim.Message {
	misID, chunks, ok := p.responseChunks()
	if !ok || seq >= len(chunks) {
		return nil
	}
	var entries []respondEntry
	// Entry sizes are summed arithmetically (see entryBits) instead of
	// building probe messages per appended entry.
	bits := tagBits + idBits(p.cfg.N) + countBits
	perEntry := 3*idBits(p.cfg.N) + countBits + len(chunks[seq])*idBits(p.cfg.N)
	for _, u := range sortedBoolKeys(p.queried) {
		if bits+perEntry > p.cfg.B {
			break
		}
		bits += perEntry
		entries = append(entries, respondEntry{Origin: u, MISID: misID, Seq: seq, IDs: chunks[seq]})
	}
	if len(entries) == 0 {
		return nil
	}
	return newRespond(p.cfg.N, p.cfg.ID, entries)
}

// buildRelay forwards buffered response chunks to their origins.
func (p *CCDSProcess) buildRelay(seq int) sim.Message {
	var entries []respondEntry
	bits := tagBits + idBits(p.cfg.N) + countBits
	for _, u := range sortedRelayKeys(p.relays) {
		rec := p.relays[u]
		ids, ok := rec.chunks[seq]
		if !ok {
			continue
		}
		eb := 3*idBits(p.cfg.N) + countBits + len(ids)*idBits(p.cfg.N)
		if bits+eb > p.cfg.B {
			break
		}
		bits += eb
		entries = append(entries, respondEntry{Origin: u, MISID: rec.misID, Seq: seq, IDs: ids})
	}
	if len(entries) == 0 {
		return nil
	}
	return newRelay(p.cfg.N, p.cfg.ID, entries)
}

// Receive implements sim.Process.
func (p *CCDSProcess) Receive(round int, msg sim.Message) {
	if round < p.sched.mis.total {
		p.mis.Receive(round, msg)
		return
	}
	if msg == nil || msg.From() == p.cfg.ID || !p.searchInit {
		return
	}
	// Section 5 assumes 0-complete detectors; all traffic is filtered to
	// reliable neighbors.
	if !p.cfg.Detector.Contains(msg.From()) {
		return
	}
	switch m := msg.(type) {
	case *bannedChunkMsg:
		p.onBannedChunk(round, m)
	case *nominateMsg:
		p.onNominate(m)
	case *stopMsg:
		p.onStop(m)
	case *selectMsg:
		p.onSelect(m)
	case *queryMsg:
		p.onQuery(m)
	case *respondMsg:
		p.onRespond(m)
	case *relayMsg:
		p.onRelay(m)
	}
}

func (p *CCDSProcess) onBannedChunk(round int, m *bannedChunkMsg) {
	if p.inMIS {
		return
	}
	rep := p.replica[m.from]
	if rep == nil {
		// The sender is a reliable MIS neighbor whose announcement was
		// missed; adopt it as a master lazily.
		rep = detector.NewSet(p.cfg.N)
		p.replica[m.from] = rep
		p.primary[m.from] = detector.NewSet(p.cfg.N)
		p.masters = append(p.masters, m.from)
		sort.Ints(p.masters)
		p.isMaster.Add(m.from)
		p.respChunks = nil
	}
	for _, id := range m.IDs {
		rep.Add(id)
	}
	t := round - p.sched.mis.total
	if epoch, _, _ := p.sched.locate(t); epoch == 0 {
		for _, id := range m.IDs {
			p.primary[m.from].Add(id)
		}
		if m.from == p.masters[0] {
			p.respChunks = nil
		}
	}
}

func (p *CCDSProcess) onNominate(m *nominateMsg) {
	if !p.inMIS {
		return
	}
	for _, e := range m.Entries {
		if e.Dest == p.cfg.ID && e.Candidate != p.cfg.ID {
			p.ddHeard = true
			if p.nomFrom == 0 {
				p.nomFrom = m.from
				p.nomCand = e.Candidate
			}
			return
		}
	}
}

func (p *CCDSProcess) onStop(m *stopMsg) {
	if p.inMIS {
		return
	}
	for i := range p.noms {
		if p.noms[i].dest == m.from {
			p.noms[i].active = false
		}
	}
}

func (p *CCDSProcess) onSelect(m *selectMsg) {
	if p.inMIS || m.V != p.cfg.ID {
		return
	}
	p.selected[m.from] = m.W
	p.joinCCDS()
}

func (p *CCDSProcess) onQuery(m *queryMsg) {
	if p.inMIS {
		return
	}
	for _, e := range m.Entries {
		if e.Target == p.cfg.ID {
			p.queried[e.Origin] = true
			p.joinCCDS()
		}
	}
}

func (p *CCDSProcess) onRespond(m *respondMsg) {
	if p.inMIS {
		return
	}
	// Only the nominator that forwarded the query buffers the response.
	for _, e := range m.Entries {
		if w, ok := p.selected[e.Origin]; ok && w == m.from {
			rec := p.relays[e.Origin]
			if rec == nil {
				rec = &relayRecord{misID: e.MISID, chunks: make(map[int][]int)}
				p.relays[e.Origin] = rec
			}
			rec.chunks[e.Seq] = e.IDs
		}
	}
}

func (p *CCDSProcess) onRelay(m *relayMsg) {
	if !p.inMIS {
		return
	}
	for _, e := range m.Entries {
		if e.Origin != p.cfg.ID {
			continue
		}
		if e.MISID != p.cfg.ID && !p.disc.Contains(e.MISID) {
			p.disc.Add(e.MISID)
		}
		p.banned.Add(e.MISID)
		for _, id := range e.IDs {
			p.banned.Add(id)
		}
	}
}

// joinCCDS marks a covered process as a CCDS relay.
func (p *CCDSProcess) joinCCDS() {
	if p.out != 1 {
		p.out = 1
	}
}

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedBoolKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedRelayKeys(m map[int]*relayRecord) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
