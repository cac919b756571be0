package journal

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type rec struct {
	Op string `json:"op"`
	ID int    `json:"id"`
}

func readRecs(t *testing.T, path string) []rec {
	t.Helper()
	lines, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]rec, 0, len(lines))
	for _, l := range lines {
		var r rec
		if err := json.Unmarshal(l, &r); err != nil {
			t.Fatalf("bad record %q: %v", l, err)
		}
		out = append(out, r)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{"accept", 1}, {"start", 1}, {"terminal", 1}}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Appends(); got != 3 {
		t.Fatalf("Appends() = %d, want 3", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readRecs(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
}

func TestReadAllMissingFileIsEmpty(t *testing.T) {
	lines, err := ReadAll(filepath.Join(t.TempDir(), "absent.ndjson"))
	if err != nil || lines != nil {
		t.Fatalf("missing journal: %v records, err %v", lines, err)
	}
}

// A crash mid-append leaves a torn final line; replay must discard it and
// keep every complete record before it.
func TestReadAllDiscardsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	body := `{"op":"accept","id":1}` + "\n" + `{"op":"start","id":1}` + "\n" + `{"op":"term`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got := readRecs(t, path)
	want := []rec{{"accept", 1}, {"start", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay with torn tail = %v, want %v", got, want)
	}
	// A journal that is nothing but a torn line replays empty.
	if err := os.WriteFile(path, []byte(`{"op":"acc`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readRecs(t, path); len(got) != 0 {
		t.Fatalf("all-torn journal replayed %v", got)
	}
}

// A record may be longer than any line buffer: a 2 MiB record and its
// neighbours read back intact, and a torn tail after it is still dropped.
func TestReadAllLongRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	type big struct {
		Op   string `json:"op"`
		Name string `json:"name"`
	}
	name := strings.Repeat("<", 2<<20/6+1) // each '<' marshals to 6 bytes
	for _, r := range []any{rec{"accept", 1}, big{"sweep", name}, rec{"accept", 2}} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"term`)
	f.Close()
	lines, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("read %d records, want 3", len(lines))
	}
	if len(lines[1]) <= 2<<20 {
		t.Fatalf("long record is %d bytes, want over 2 MiB", len(lines[1]))
	}
	var b big
	if err := json.Unmarshal(lines[1], &b); err != nil || b.Name != name {
		t.Fatalf("long record did not read back intact (err %v)", err)
	}
	if got := readRecs(t, path); got[0] != (rec{"accept", 1}) || got[2] != (rec{"accept", 2}) {
		t.Fatalf("neighbours of the long record = %v", got)
	}
	// Records are capped slices: appending to one cannot overwrite the next.
	_ = append(lines[0], '!')
	if string(lines[1][:7]) != `{"op":"` {
		t.Fatalf("appending to a record overwrote its neighbour: %q", lines[1][:7])
	}
}

// Begin must leave the previous generation readable until Seal renames the
// new one over it — the crash-mid-rebuild guarantee.
func TestBeginPreservesPreviousGenerationUntilSeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	if err := os.WriteFile(path, []byte(`{"op":"accept","id":7}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{"accept", 8}); err != nil {
		t.Fatal(err)
	}
	// Before Seal: the old generation is what ReadAll sees.
	if got := readRecs(t, path); !reflect.DeepEqual(got, []rec{{"accept", 7}}) {
		t.Fatalf("pre-seal replay = %v, want the previous generation", got)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	// After Seal: the new generation took over, and appends keep landing in
	// it through the already-open descriptor.
	if err := j.Append(rec{"start", 8}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := readRecs(t, path); !reflect.DeepEqual(got, []rec{{"accept", 8}, {"start", 8}}) {
		t.Fatalf("post-seal replay = %v", got)
	}
}

func TestCompactReplacesContents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(nil); err == nil {
		t.Fatal("Compact before Seal must fail")
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(rec{"accept", i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([]any{rec{"accept", 9}}); err != nil {
		t.Fatal(err)
	}
	if got := j.Appends(); got != 1 {
		t.Fatalf("Appends() after compact = %d, want 1", got)
	}
	// Appends continue into the compacted generation.
	if err := j.Append(rec{"terminal", 9}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := readRecs(t, path); !reflect.DeepEqual(got, []rec{{"accept", 9}, {"terminal", 9}}) {
		t.Fatalf("post-compact replay = %v", got)
	}
}

// Compact refuses an unsealed generation and a closed journal, and
// leaves what it refused untouched.
func TestCompactRefusesUnsealedAndClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	prev := `{"op":"accept","id":7}` + "\n"
	if err := os.WriteFile(path, []byte(prev), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{"accept", 8}); err != nil {
		t.Fatal(err)
	}
	if j.Sealed() {
		t.Fatal("a fresh generation reports sealed")
	}
	if err := j.Compact([]any{rec{"accept", 9}}); err == nil || !strings.Contains(err.Error(), "before seal") {
		t.Fatalf("Compact before Seal = %v, want a before-seal error", err)
	}
	if got := readRecs(t, path); !reflect.DeepEqual(got, []rec{{"accept", 7}}) {
		t.Fatalf("refused compaction changed the previous generation: %v", got)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	if !j.Sealed() {
		t.Fatal("a sealed generation reports unsealed")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact([]any{rec{"accept", 9}}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Compact after Close = %v, want a closed error", err)
	}
	if got := readRecs(t, path); !reflect.DeepEqual(got, []rec{{"accept", 8}}) {
		t.Fatalf("compaction after Close changed the journal: %v", got)
	}
}

// A record json.Marshal rejects fails the compaction: the previous
// generation reads back intact, no side file remains, and appends keep
// landing in the previous generation after its records.
func TestCompactMarshalFailureKeepsGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(rec{"accept", i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([]any{rec{"accept", 0}, math.Inf(1)}); err == nil {
		t.Fatal("Compact of an unmarshalable record succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed compaction left its side file (stat err %v)", err)
	}
	want := []rec{{"accept", 0}, {"accept", 1}, {"accept", 2}}
	if got := readRecs(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("previous generation after a failed compaction = %v, want %v", got, want)
	}
	if got := j.Appends(); got != 3 {
		t.Fatalf("Appends() after a failed compaction = %d, want 3", got)
	}
	if err := j.Append(rec{"terminal", 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := readRecs(t, path); !reflect.DeepEqual(got, append(want, rec{"terminal", 2})) {
		t.Fatalf("append after a failed compaction = %v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("journal dir holds %d entries (err %v), want only the journal", len(entries), err)
	}
}

// Appends after a compaction land after the compacted records, through
// two compactions in a row.
func TestAppendsAfterCompactionFollowIt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	var want []rec
	for round := 0; round < 2; round++ {
		live := []any{rec{"accept", 10 * round}, rec{"start", 10 * round}, rec{"accept", 10*round + 1}}
		if err := j.Compact(live); err != nil {
			t.Fatal(err)
		}
		want = want[:0]
		for _, r := range live {
			want = append(want, r.(rec))
		}
		for i := 0; i < 3; i++ {
			r := rec{"terminal", 10*round + i}
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		if got := j.Appends(); got != 6 {
			t.Fatalf("round %d: Appends() = %d, want 6", round, got)
		}
		if got := readRecs(t, path); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: replay = %v, want %v", round, got, want)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction left its side file (stat err %v)", err)
	}
	j.Close()
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(rec{"accept", w*per + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	got := readRecs(t, path)
	if len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
	seen := make(map[int]bool, len(got))
	for _, r := range got {
		if seen[r.ID] {
			t.Fatalf("record %d appeared twice (torn interleaved write?)", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestClosedJournalRejectsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Seal()
	j.Close()
	if err := j.Append(rec{"accept", 1}); err == nil {
		t.Fatal("append to closed journal succeeded")
	}
}
