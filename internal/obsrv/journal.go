package obsrv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"acr/internal/telemetry"
)

// journalLine is one JSONL journal entry: a wall-clock stamp plus the run
// record at a lifecycle transition. Begin-lines carry the light record
// (status running); end-lines carry the full record including the summary
// and metrics snapshot, so the journal alone reconstructs finished runs.
type journalLine struct {
	TS     string    `json:"ts"`
	Record RunRecord `json:"record"`
}

// journal is the append-only on-disk log. Appends are serialised by a
// mutex and flushed per line: a crashed process loses at most the line in
// flight, and every retained line is independently parseable.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obsrv: journal: %w", err)
	}
	return &journal{f: f}, nil
}

func (j *journal) append(rec RunRecord) error {
	line := journalLine{TS: time.Now().UTC().Format(time.RFC3339Nano), Record: rec}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.f.Write(data)
	return err
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// appendJournal journals a record transition; journal write failures are
// surfaced on stderr rather than failing the run — observability must not
// take the experiment down.
func (g *Registry) appendJournal(rec RunRecord) {
	if g.journal == nil {
		return
	}
	if err := g.journal.append(rec); err != nil {
		fmt.Fprintf(os.Stderr, "obsrv: journal append: %v\n", err)
	}
}

// LoadJournal folds an existing journal file into the registry: later
// lines for a key supersede earlier ones, and records that were still
// running when their process died load as StatusInterrupted. A line whose
// metrics snapshot would not import (a histogram without buckets, bucket
// counts that do not match the bounds, …) is an error naming the line. A
// missing file is not an error (first run with a fresh journal path).
// Loaded runs have empty flight rings — event history is in-memory only.
func (g *Registry) LoadJournal(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("obsrv: journal: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	n := 0
	for sc.Scan() {
		n++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var line journalLine
		if err := json.Unmarshal(text, &line); err != nil {
			return fmt.Errorf("obsrv: journal %s line %d: %w", path, n, err)
		}
		rec := line.Record
		if rec.Key == "" {
			return fmt.Errorf("obsrv: journal %s line %d: record without key", path, n)
		}
		// The observatory serves and aggregates the snapshot, so it must
		// pass the checks a live import makes.
		if err := telemetry.NewRegistry().ImportSnapshot(rec.Metrics, "", ""); err != nil {
			return fmt.Errorf("obsrv: journal %s line %d: %w", path, n, err)
		}
		if rec.Status == StatusRunning {
			rec.Status = StatusInterrupted
			rec.Error = "interrupted: loaded from journal with status running"
		}
		g.mu.Lock()
		st := g.runs[rec.Key]
		if st == nil {
			st = &runState{flight: newFlightRing(g.opts.FlightCap)}
			g.runs[rec.Key] = st
			g.order = append(g.order, rec.Key)
		}
		g.mu.Unlock()
		st.mu.Lock()
		// The journal records EventsSeen at transition time, but the
		// events themselves are gone with the old process.
		rec.EventsHeld = 0
		st.record = rec
		st.mu.Unlock()
	}
	return sc.Err()
}
