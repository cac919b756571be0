// Package journal is an append-only NDJSON write-ahead log: one JSON
// record per line, appended to a file as state transitions happen and
// replayed on startup to reconstruct in-flight state after a crash.
//
// The durability model targets process death (kill -9, panic, OOM), not
// machine loss: a completed write(2) survives the process because the bytes
// live in the kernel page cache, so no fsync is issued per append and the
// hot path stays cheap. A crash can truncate at most the final line — the
// record being appended when the process died — and ReadAll tolerates
// exactly that: a trailing partial line is discarded, never misparsed,
// because every complete record ends in '\n'.
//
// Compaction uses generations: Begin starts a fresh generation at
// path+".tmp", Seal atomically renames it over path once the live state has
// been re-recorded, and the open file descriptor keeps appending to the
// renamed file. A crash before Seal leaves the previous generation intact;
// a crash after Seal leaves the compacted one — there is no window where
// neither is complete.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Journal is one open generation of an NDJSON log. It is safe for
// concurrent appends.
type Journal struct {
	path string // final path; Seal renames the generation here

	mu      sync.Mutex
	f       *os.File
	sealed  bool
	appends int
}

// ReadAll returns the complete records of the journal at path, one raw
// JSON line each, in append order. A missing file is an empty journal. A
// trailing line without a newline — the append in flight when a previous
// process died — is discarded; blank lines are skipped. A record may be
// any length: the file is already in memory, so lines are cut from it
// without a scanner's line cap. Each record is a capped slice of that
// buffer.
func ReadAll(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	// Drop the torn tail: everything after the last newline is a partial
	// append whose transition never durably happened.
	if i := bytes.LastIndexByte(data, '\n'); i < 0 {
		return nil, nil
	} else {
		data = data[:i+1]
	}
	var records [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		line := bytes.TrimSpace(data[:i])
		data = data[i+1:]
		if len(line) == 0 {
			continue
		}
		records = append(records, line[:len(line):len(line)])
	}
	return records, nil
}

// Begin starts a fresh generation: a truncated file at path+".tmp" that
// receives appends until Seal renames it over path. The previous
// generation at path is left untouched until then, so the live state it
// records survives a crash mid-rebuild.
func Begin(path string) (*Journal, error) {
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: begin %s: %w", path, err)
	}
	return &Journal{path: path, f: f}, nil
}

// Append marshals v and writes it as one NDJSON line.
func (j *Journal) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal record: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.appends++
	return nil
}

// Appends returns the number of records appended to the current
// generation — the compaction trigger for callers that rewrite the journal
// once it has grown far past the live state it describes.
func (j *Journal) Appends() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Seal atomically renames the in-progress generation over the journal
// path. Appends continue to the same file descriptor — on POSIX the rename
// does not invalidate it — so Seal marks the moment the new generation
// becomes the journal, not the end of writing.
func (j *Journal) Seal() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if j.sealed {
		return nil
	}
	if err := os.Rename(j.path+".tmp", j.path); err != nil {
		return fmt.Errorf("journal: seal: %w", err)
	}
	j.sealed = true
	return nil
}

// Sealed reports whether the current generation has been renamed over the
// journal path — the precondition for Compact. Callers that may hold a
// never-sealed generation (e.g. a server torn down mid-startup) check this
// before compacting on shutdown.
func (j *Journal) Sealed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sealed
}

// Compact replaces the journal's contents with exactly records: a fresh
// generation is written to the side, sealed, and becomes the append target.
// The journal must already be sealed — compacting an unsealed generation
// would discard the records that distinguish it from the previous one.
func (j *Journal) Compact(records []any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if !j.sealed {
		return errors.New("journal: compact before seal")
	}
	f, err := os.OpenFile(j.path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, r := range records {
		data, err := json.Marshal(r)
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			return fmt.Errorf("journal: compact marshal: %w", err)
		}
		data = append(data, '\n')
		if _, err := w.Write(data); err != nil {
			f.Close()
			os.Remove(f.Name())
			return fmt.Errorf("journal: compact write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("journal: compact flush: %w", err)
	}
	if err := os.Rename(j.path+".tmp", j.path); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	old := j.f
	j.f = f
	j.appends = len(records)
	old.Close()
	return nil
}

// Close releases the file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Path returns the journal's final path.
func (j *Journal) Path() string { return j.path }
