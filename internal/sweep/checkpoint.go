package sweep

// This file implements checkpoint/resume for long-running sweeps: a
// Checkpointer appends every completed point to an append-only
// JSON-lines journal, and Resume reads a journal back so RunContext can
// skip configurations that already completed. The journal reuses the
// versioned persisted-point schema of SaveJSON/LoadJSON, with one entry
// per line so an interrupted run loses at most the entry being written.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"twolevel/internal/wal"
)

// journalFormat identifies the checkpoint-journal schema version.
const journalFormat = "twolevel-sweep-journal/1"

// journalHeader is the first line of a journal.
type journalHeader struct {
	Format string `json:"format"`
}

// journalEntry is one completed point, keyed by the sweep that produced
// it (workload name + option fingerprint) so one journal can serve
// multi-workload and multi-sweep runs.
type journalEntry struct {
	Key   string         `json:"key"`
	Point persistedPoint `json:"point"`
}

// syncEvery is how many records a file-backed Checkpointer writes
// between fsyncs: frequent enough that a killed run loses little work,
// rare enough not to throttle the sweep.
const syncEvery = 16

// Checkpointer journals completed sweep points. It is safe for
// concurrent use by the sweep workers.
type Checkpointer struct {
	mu        sync.Mutex
	w         io.Writer
	f         *os.File // non-nil when file-backed; fsynced periodically
	sinceSync int
}

// NewCheckpointer starts a journal on w, writing the header line
// immediately.
func NewCheckpointer(w io.Writer) (*Checkpointer, error) {
	c := &Checkpointer{w: w}
	if err := c.writeLine(journalHeader{Format: journalFormat}); err != nil {
		return nil, fmt.Errorf("sweep: starting journal: %w", err)
	}
	return c, nil
}

// OpenCheckpointFile opens (or creates) an append-mode journal at path.
// A new or empty file gets the header line; an existing journal is
// appended to, which is how a resumed run extends the journal it resumed
// from.
func OpenCheckpointFile(path string) (*Checkpointer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: opening journal: %w", err)
	}
	c := &Checkpointer{w: f, f: f}
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		if err := c.writeLine(journalHeader{Format: journalFormat}); err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: starting journal: %w", err)
		}
	}
	return c, nil
}

// writeLine marshals v and appends it as one journal line. Callers hold
// no lock during construction; Record takes the lock.
func (c *Checkpointer) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = c.w.Write(b)
	return err
}

// Record journals one completed point under the given sweep key.
func (c *Checkpointer) Record(key string, p Point) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writeLine(journalEntry{Key: key, Point: pointToPersisted(p)}); err != nil {
		return err
	}
	if c.f != nil {
		if c.sinceSync++; c.sinceSync >= syncEvery {
			c.sinceSync = 0
			return c.f.Sync()
		}
	}
	return nil
}

// Sync forces any file-backed journal to stable storage.
func (c *Checkpointer) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sinceSync = 0
	if c.f == nil {
		return nil
	}
	return c.f.Sync()
}

// Close syncs and closes a file-backed journal (a no-op for plain
// writers).
func (c *Checkpointer) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	if err := c.f.Sync(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

// ResumeSet holds the points recovered from a checkpoint journal, keyed
// by sweep and label. A nil ResumeSet is valid and empty.
type ResumeSet struct {
	points map[string]map[string]Point
}

// Len reports the total number of journaled points.
func (r *ResumeSet) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, m := range r.points {
		n += len(m)
	}
	return n
}

// forKey returns the label→point map for one sweep key (nil-safe).
func (r *ResumeSet) forKey(key string) map[string]Point {
	if r == nil {
		return nil
	}
	return r.points[key]
}

// maxJournalLine bounds one journal record (a persisted point is well
// under a kilobyte; 4MB leaves generous headroom).
const maxJournalLine = 4 * 1024 * 1024

// Resume reads and validates a checkpoint journal: the format line must
// match, every point must pass the same validation LoadJSON applies
// (no NaN/Inf/negative metrics), and a (sweep, label) pair may appear at
// most once.
//
// The one failure an interrupted run legitimately leaves behind — a
// torn final record, partially written (no trailing newline) when the
// process died — is recovered, not fatal: the record is dropped (even
// one that happens to parse, since appending after a newline-less line
// would corrupt both records) and its configuration is simply
// re-evaluated. Any unreadable record that IS newline-terminated is real
// corruption and remains an error — such a journal should be deleted and
// the sweep restarted from scratch.
func Resume(rd io.Reader) (*ResumeSet, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("sweep: reading journal: %w", err)
	}
	return resume(wal.Scan(data))
}

// resume validates a scanned journal. The torn-tail rule is wal's; the
// records themselves are unframed, so the checkpoint bytes stay those of
// twolevel-sweep-journal/1.
func resume(l wal.Log) (*ResumeSet, error) {
	if l.Header == nil && l.Torn >= 0 {
		return nil, fmt.Errorf("sweep: journal header is torn (no complete %q line)", journalFormat)
	}
	if len(bytes.TrimSpace(l.Header)) == 0 {
		return nil, fmt.Errorf("sweep: journal is empty (missing %q header)", journalFormat)
	}
	var hdr journalHeader
	if err := json.Unmarshal(l.Header, &hdr); err != nil {
		return nil, fmt.Errorf("sweep: journal header: %w", err)
	}
	if hdr.Format != journalFormat {
		return nil, fmt.Errorf("sweep: unknown journal format %q (want %q)", hdr.Format, journalFormat)
	}
	rs := &ResumeSet{points: make(map[string]map[string]Point)}
	for i, raw := range l.Records {
		line := i + 2
		if len(raw) > maxJournalLine {
			return nil, fmt.Errorf("sweep: journal line %d exceeds %d bytes", line, maxJournalLine)
		}
		data := bytes.TrimSuffix(raw, []byte("\n"))
		if len(bytes.TrimSpace(data)) == 0 {
			continue
		}
		if err := readEntry(rs, data); err != nil {
			return nil, fmt.Errorf("sweep: journal line %d: %w", line, err)
		}
	}
	return rs, nil
}

// readEntry parses and validates one journal record and stores it in rs.
func readEntry(rs *ResumeSet, data []byte) error {
	var e journalEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return err
	}
	if e.Key == "" {
		return fmt.Errorf("missing sweep key")
	}
	p, err := pointFromPersisted(e.Point)
	if err != nil {
		return err
	}
	m := rs.points[e.Key]
	if m == nil {
		m = make(map[string]Point)
		rs.points[e.Key] = m
	}
	if _, dup := m[p.Label]; dup {
		return fmt.Errorf("duplicate configuration %q", p.Label)
	}
	m[p.Label] = p
	return nil
}

// ResumeFile reads a checkpoint journal from disk. A torn final record
// (see Resume) is additionally truncated off the file, so the journal
// is safe to keep appending to; a journal Resume rejects is left as it
// is.
func ResumeFile(path string) (*ResumeSet, error) {
	var rs *ResumeSet
	var rerr error
	_, err := wal.ScanFile(path, func(l wal.Log) error {
		rs, rerr = resume(l)
		return rerr
	})
	if rerr != nil {
		return nil, rerr
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: journal: %w", err)
	}
	return rs, nil
}
