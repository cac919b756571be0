package server

import (
	"encoding/json"
	"path/filepath"
	"strconv"
	"time"

	"dualradio/internal/fleet"
	"dualradio/internal/journal"
	"dualradio/internal/scenario"
)

// The job journal is the service's crash-recovery backbone: an append-only
// NDJSON log under DataDir recording every admission and terminal
// transition. On startup the previous generation is replayed: every
// standalone job without a terminal record and every sweep with an
// incomplete child is re-admitted through the normal submission paths under
// its original id — which also rewrites the new generation to exactly the
// live set, so replay doubles as compaction. Completed children of a
// resumed sweep become cache hits against the content-addressed result
// store, so a restart re-runs only the work the crash actually lost and
// the final report is byte-identical to an uninterrupted run's.

// Journal record ops.
const (
	opAccept   = "accept"   // standalone job admitted; Spec carries its canonical spec
	opStart    = "start"    // job began executing (observability; replay ignores it)
	opTerminal = "terminal" // job reached a terminal status
	opSweep    = "sweep"    // sweep admitted; Sweep, Children + Hash carry its spec, child ids and expansion hash
)

// journalRecord is one NDJSON line of the job journal.
type journalRecord struct {
	Op     string    `json:"op"`
	ID     string    `json:"id"`
	Status JobStatus `json:"status,omitempty"`
	// Attempt tags start records with the retry attempt they begin.
	Attempt  int             `json:"attempt,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Sweep    json.RawMessage `json:"sweep,omitempty"`
	Children []string        `json:"children,omitempty"`
	// Hash is a sweep's expansion hash (scenario.Expansion.Hash): replay
	// drops a sweep whose re-expansion hashes differently. Sweep records
	// written before it existed carry none.
	Hash string `json:"hash,omitempty"`
	// TS is the wallclock append time, stamped by journalAppend. It is
	// forensic only: replay never reads it, and it does not participate
	// in any canonical hash.
	TS time.Time `json:"ts"`
}

func journalPath(dataDir string) string { return filepath.Join(dataDir, "journal.ndjson") }

// journalAppend writes one record — a journalRecord, or a fleet.Record
// for lease/worker transitions (replay ignores their ops; they document
// the assignment history) — stamping its wallclock TS and observing the
// append latency. Failures are counted, not fatal — the journal is a
// recovery aid and must never take the service down.
func (s *Server) journalAppend(rec any) {
	if s.journal == nil {
		return
	}
	switch r := rec.(type) {
	case journalRecord:
		r.TS = time.Now() //detvet:wallclock forensic record timestamp; replay ignores TS (TestWallclockStampsAreHashNeutral)
		rec = r
	case fleet.Record:
		r.TS = time.Now() //detvet:wallclock forensic record timestamp; replay ignores TS
		rec = r
	}
	start := time.Now() //detvet:wallclock journal_append latency histogram only
	err := s.journal.Append(rec)
	s.srvm.journalAppend.Observe(time.Since(start).Seconds()) //detvet:wallclock journal_append latency histogram only
	if err != nil {
		s.journalErrs.Add(1)
	}
}

func acceptRecord(j *Job) journalRecord {
	// Canonical specs are plain validated data; Marshal cannot fail. A nil
	// Spec would simply drop the job from replay.
	spec, _ := json.Marshal(j.comp.Spec())
	return journalRecord{Op: opAccept, ID: j.id, Spec: spec}
}

// maxIDSuffix bounds the id suffixes replay resumes allocation past. No
// daemon allocates that many ids; a larger suffix comes from a corrupt
// journal, and allocating past it could overflow.
const maxIDSuffix = 1 << 40

// idSuffix returns the numeric suffix of a j%06d / s%06d id (0 if
// malformed or above maxIDSuffix), for resuming id allocation past
// everything the journal saw.
func idSuffix(id string) int {
	if len(id) < 2 {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 || n > maxIDSuffix {
		return 0
	}
	return n
}

// replayJournal reads the previous journal generation, re-admits every
// incomplete job and sweep under its original id, and seals a fresh
// generation containing exactly the live set. Workers are already running,
// so replay uses blocking queue sends (nothing else holds s.mu, and
// workers never take it, so the sends drain and cannot deadlock).
//
// Children of a resumed sweep are all re-admitted: previously completed
// ones hit the result store and complete instantly as cache hits;
// previously failed or cancelled ones get a fresh attempt — the journal
// records that they finished, not their irreproducible error state, and
// re-running is always correct for a deterministic workload.
func (s *Server) replayJournal() error {
	path := journalPath(s.cfg.DataDir)
	lines, err := journal.ReadAll(path)
	if err != nil {
		return err
	}
	jl, err := journal.Begin(path)
	if err != nil {
		return err
	}
	s.journal = jl

	// Pass 1: index the records. Terminal records may precede their accept
	// records in the log (a cache hit journals its terminal transition
	// inside the admission critical section), so replay never assumes order.
	// A duplicated accept or sweep record keeps its first occurrence.
	var (
		acceptOrder []string
		accepts     = make(map[string]json.RawMessage)
		terminals   = make(map[string]bool)
		sweepOrder  []string
		sweepRecs   = make(map[string]journalRecord)
		sweepChild  = make(map[string]bool)
		// lastJob and lastSweep are the largest id suffixes any record
		// names, terminal or not: id allocation resumes past them, so new
		// submissions never reuse a pre-crash id.
		lastJob, lastSweep int
	)
	for _, line := range lines {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			s.journalErrs.Add(1)
			continue
		}
		switch rec.Op {
		case opAccept:
			if _, dup := accepts[rec.ID]; !dup {
				accepts[rec.ID] = rec.Spec
				acceptOrder = append(acceptOrder, rec.ID)
			}
		case opTerminal:
			terminals[rec.ID] = true
		case opSweep:
			if _, dup := sweepRecs[rec.ID]; !dup {
				sweepRecs[rec.ID] = rec
				sweepOrder = append(sweepOrder, rec.ID)
				for _, c := range rec.Children {
					sweepChild[c] = true
				}
			}
			lastSweep = max(lastSweep, idSuffix(rec.ID))
			for _, c := range rec.Children {
				lastJob = max(lastJob, idSuffix(c))
			}
			continue
		}
		lastJob = max(lastJob, idSuffix(rec.ID))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.replaying = true
	defer func() { s.replaying = false }()
	s.nextID, s.nextSweep = lastJob, lastSweep

	// Pass 2a: re-admit incomplete standalone jobs in acceptance order.
	for _, id := range acceptOrder {
		if sweepChild[id] || terminals[id] {
			continue
		}
		spec, err := scenario.ParseSpec(accepts[id])
		if err != nil {
			s.replayDropped++
			continue
		}
		comp, err := scenario.Compile(spec)
		if err != nil {
			s.replayDropped++
			continue
		}
		res, cached := s.lookupResult(comp.Hash())
		if _, err := s.startJobLocked(id, comp, res, cached, nil, 0); err != nil {
			s.replayDropped++
			continue
		}
		s.replayedJobs++
	}

	// Pass 2b: resume sweeps with at least one child lacking a terminal
	// record. ExpandSweep is deterministic, so re-expansion reproduces the
	// pre-crash grid; a re-expansion whose hash differs from the journaled
	// one, or whose child count differs from the journaled child ids, means
	// the journal and the code disagree, and the sweep is dropped rather
	// than resurrected wrong. A record without a hash has only the count.
	for _, sid := range sweepOrder {
		rec := sweepRecs[sid]
		complete := len(rec.Children) > 0
		for _, cid := range rec.Children {
			if !terminals[cid] {
				complete = false
				break
			}
		}
		if complete {
			continue
		}
		// Decode as strictly as admission does: a field this code no longer
		// knows (a retired axis) must drop the sweep, not resume it as
		// other children under the journaled ids.
		swspec, err := scenario.ParseSweep(rec.Sweep)
		if err != nil {
			s.replayDropped++
			continue
		}
		exp, err := scenario.ExpandSweep(swspec)
		if err != nil || len(exp.Children) != len(rec.Children) || rec.Hash != "" && rec.Hash != exp.Hash() ||
			!s.unusedIDsLocked(rec.Children) {
			s.replayDropped++
			continue
		}
		// Re-journal the sweep before its children, mirroring SubmitSweep:
		// a crash mid-resume must not lose the admitted prefix.
		s.journalAppend(journalRecord{Op: opSweep, ID: sid, Sweep: rec.Sweep, Hash: exp.Hash(), Children: rec.Children})
		swp := newSweep(sid, exp)
		admitted := true
		for i, comp := range exp.Children {
			res, cached := s.lookupResult(comp.Hash())
			if _, err := s.startJobLocked(rec.Children[i], comp, res, cached, swp, i); err != nil {
				admitted = false
				break
			}
		}
		if !admitted {
			for _, cid := range rec.Children {
				s.journalAppend(journalRecord{Op: opTerminal, ID: cid, Status: StatusCancelled})
			}
			swp.CancelChildren()
			s.replayDropped++
			continue
		}
		s.sweeps[sid] = swp
		s.sweepOrder = append(s.sweepOrder, sid)
		s.replayedSweeps++
	}
	return jl.Seal()
}

// unusedIDsLocked reports whether ids are distinct and name no registered
// job. A journal that lists one child id twice, in one sweep record or in
// two, would otherwise admit two jobs under it. Callers hold s.mu.
func (s *Server) unusedIDsLocked(ids []string) bool {
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, taken := s.jobs[id]; taken || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// journalCompactEvery triggers an in-process journal rewrite once the
// current generation holds this many records (and dwarfs the live set). A
// variable so tests can lower it.
var journalCompactEvery = 4096

// maybeCompactJournalLocked rewrites the journal to the minimal live
// record set once the generation has grown far past it. Callers hold s.mu.
//
// A child may reach a terminal state concurrently with the rewrite and
// have its terminal record land in the discarded generation; the journal
// is then conservative — replay re-runs that child, and determinism plus
// the result store make the redo a cache hit — so the race loses a little
// work, never any results.
func (s *Server) maybeCompactJournalLocked() {
	if s.journal == nil {
		return
	}
	appends := s.journal.Appends()
	if appends < journalCompactEvery {
		return
	}
	live := s.liveJournalRecordsLocked()
	if appends < 4*len(live) {
		return
	}
	if err := s.journal.Compact(live); err != nil {
		s.journalErrs.Add(1)
	}
}

// liveJournalRecordsLocked rebuilds the minimal record set describing the
// registry's live state: accept records for non-terminal standalone jobs,
// sweep records plus per-child terminal records for unfinished sweeps.
// Terminal standalone jobs and completed sweeps need no records at all —
// replay would drop them anyway. Callers hold s.mu.
func (s *Server) liveJournalRecordsLocked() []any {
	var recs []any
	for _, id := range s.order {
		j := s.jobs[id]
		if j.fromSweep || j.Status().terminal() {
			continue
		}
		recs = append(recs, acceptRecord(j))
	}
	for _, sid := range s.sweepOrder {
		sw := s.sweeps[sid]
		if sw.terminal() {
			continue
		}
		raw, err := json.Marshal(sw.exp.Spec)
		if err != nil {
			continue
		}
		kids := sw.records()
		children := make([]string, len(kids))
		var terms []any
		for i, r := range kids {
			children[i] = r.id
			if r.status.terminal() {
				terms = append(terms, journalRecord{Op: opTerminal, ID: r.id, Status: r.status})
			}
		}
		recs = append(recs, journalRecord{Op: opSweep, ID: sid, Sweep: raw, Hash: sw.exp.Hash(), Children: children})
		recs = append(recs, terms...)
	}
	return recs
}
