package service

// This file implements DiskStore, the crash-safe durable result store:
// the same Store contract as MemStore, backed by an append-only JSONL
// log so a kill -9 and restart replays to the identical memoized state.
// The log mechanics (record framing, torn-tail repair, crash-atomic
// rewrite) are internal/wal's; this file is the record schema and the
// store's failure policy.
//
// Layout and guarantees:
//
//   - The store directory holds one segment, seg-NNNNNN.jsonl. Its first
//     line names the format; every later line is one wal-framed record
//     {"key": ..., "point": <persisted twolevel-sweep/1 point>}.
//     Directories written before rotation was removed may hold several
//     segments: they replay in ascending order, last record wins, and
//     appends go to the highest.
//   - Appends are fsynced (every DiskStoreOptions.SyncEvery records, 1
//     by default), so a completed Put survives power loss.
//   - On open, records with a failing checksum or unparsable body are
//     dropped and counted (Stats().CorruptDropped) — the affected key
//     is simply re-evaluated on next use. A torn final record (a
//     newline-less tail, the signature of a crash mid-append) is
//     truncated off so the segment is append-safe again.
//   - Once enough overwritten (dead) records accumulate, a Put compacts
//     in place under the store lock: the live map is rewritten
//     crash-atomically over the highest segment, which is reopened, and
//     the lower segments are deleted.
//
// DiskStore keeps the full point map in memory — disk is durability,
// not capacity — so Get/Points serve at MemStore speed.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"twolevel/internal/chaos"
	"twolevel/internal/sweep"
	"twolevel/internal/wal"
)

// segmentFormat identifies the segment-file schema version.
const segmentFormat = "twolevel-store-segment/1"

// Chaos-injection sites of the durable store. Tests install
// internal/chaos rules against these names to prove the recovery paths.
const (
	// ChaosSiteStoreAppend fires before a record append; an injected
	// error models a full disk or failed syscall.
	ChaosSiteStoreAppend = "store.append"
	// ChaosSiteStoreWrite wraps the segment writer; Short rules tear
	// records, Corrupt rules flip payload bytes the checksum must catch.
	ChaosSiteStoreWrite = "store.write"
	// ChaosSiteStoreRepair fires before the post-failure truncation
	// that cuts a torn append back off; an injected error models the
	// crash landing between the write and the repair.
	ChaosSiteStoreRepair = "store.repair"
	// ChaosSiteStoreSync fires before an fsync.
	ChaosSiteStoreSync = "store.sync"
	// ChaosSiteStoreCompact fires at the start of a compaction pass.
	ChaosSiteStoreCompact = "store.compact"
)

// DiskStoreOptions tunes a DiskStore. The zero value selects the
// defaults noted on each field.
type DiskStoreOptions struct {
	// SyncEvery is the fsync cadence in records (default 1: every
	// append reaches stable storage before Put returns).
	SyncEvery int
	// CompactMinDead is how many overwritten records may accumulate
	// before a Put compacts the segment (default 1024).
	CompactMinDead int
	// Chaos, when non-nil, fires at the ChaosSiteStore* sites so tests
	// can inject append failures, torn writes, and corrupted bytes. Nil
	// costs nothing.
	Chaos *chaos.Injector
}

func (o DiskStoreOptions) withDefaults() DiskStoreOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	if o.CompactMinDead <= 0 {
		o.CompactMinDead = 1024
	}
	return o
}

// DiskStoreStats is a point-in-time snapshot of the store's disk state.
type DiskStoreStats struct {
	// Points is the number of live memoized points.
	Points int
	// Segments is the number of segment files: 1, or more for a legacy
	// directory not yet compacted.
	Segments int
	// Dead counts records superseded by a later Put and not yet
	// compacted away.
	Dead int
	// CorruptDropped counts records dropped at open time for checksum
	// or parse failures.
	CorruptDropped int
	// TornRepaired counts torn final records truncated off at open.
	TornRepaired int
	// Compactions counts completed compaction passes.
	Compactions int
}

// segHeader is the first line of every segment.
type segHeader struct {
	Format  string `json:"format"`
	Segment int    `json:"segment"`
}

// recBody is the checksummed payload of a record.
type recBody struct {
	Key   string          `json:"key"`
	Point json.RawMessage `json:"point"`
}

// DiskStore is the durable result store. It is safe for concurrent
// use; OpenDiskStore builds one.
type DiskStore struct {
	dir string
	opt DiskStoreOptions
	inj *chaos.Injector

	mu        sync.Mutex
	m         map[string]sweep.Point
	seg       *wal.File // highest segment (nil once persistence has failed hard)
	segN      int
	sinceSync int
	dead      int
	stats     DiskStoreStats
	err       error // first persistence failure, sticky
	closed    bool
}

// OpenDiskStore opens (creating if needed) a durable result store in
// dir, replaying every segment into memory. Corrupted records are
// dropped and counted; a torn final record is truncated off. The
// returned store is ready for Put traffic.
func OpenDiskStore(dir string, opt DiskStoreOptions) (*DiskStore, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: store dir: %w", err)
	}
	s := &DiskStore{
		dir:  dir,
		opt:  opt,
		inj:  opt.Chaos,
		m:    make(map[string]sweep.Point),
		segN: 1,
	}
	segs, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	headerless := true // a new, empty or torn-header highest segment
	for _, n := range segs {
		l, err := wal.ScanFile(s.segPath(n), s.replay)
		if err != nil {
			return nil, fmt.Errorf("service: segment %d: %w", n, err)
		}
		if l.Torn >= 0 {
			s.stats.TornRepaired++
		}
		s.segN, headerless = n, l.Header == nil
	}
	if headerless {
		if err := s.rewrite(nil); err != nil {
			return nil, err
		}
	}
	if s.seg, err = wal.Open(s.segPath(s.segN), s.inj, ChaosSiteStoreWrite); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.stats.Segments = max(len(segs), 1)
	return s, nil
}

func (s *DiskStore) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", n))
}

// listSegments returns the existing segment numbers in ascending order.
func (s *DiskStore) listSegments() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: store dir: %w", err)
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.jsonl", &n); err == nil && e.Name() == fmt.Sprintf("seg-%06d.jsonl", n) {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// replay loads one scanned segment into the memory map. A segment with
// no complete line holds no records.
func (s *DiskStore) replay(l wal.Log) error {
	if l.Header == nil {
		return nil
	}
	var hdr segHeader
	if err := json.Unmarshal(l.Header, &hdr); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if hdr.Format != segmentFormat {
		return fmt.Errorf("unknown format %q (want %q)", hdr.Format, segmentFormat)
	}
	for _, line := range l.Records {
		key, p, err := decodeRecord(line)
		if err != nil {
			// Checksum or parse failure: this key was not durably
			// stored; drop it and let the next job re-evaluate it.
			s.stats.CorruptDropped++
			continue
		}
		if _, exists := s.m[key]; exists {
			s.dead++
		}
		s.m[key] = p
	}
	return nil
}

// decodeRecord verifies and unpacks one record line.
func decodeRecord(line []byte) (string, sweep.Point, error) {
	rec, err := wal.Unframe(line)
	if err != nil {
		return "", sweep.Point{}, err
	}
	var body recBody
	if err := json.Unmarshal(rec, &body); err != nil {
		return "", sweep.Point{}, err
	}
	if body.Key == "" {
		return "", sweep.Point{}, fmt.Errorf("service: record missing key")
	}
	p, err := sweep.UnmarshalPointJSON(body.Point)
	if err != nil {
		return "", sweep.Point{}, err
	}
	return body.Key, p, nil
}

// encodeRecord frames one (key, point) as a checksummed record line.
func encodeRecord(key string, p sweep.Point) ([]byte, error) {
	pj, err := sweep.MarshalPointJSON(p)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(recBody{Key: key, Point: pj})
	if err != nil {
		return nil, err
	}
	return wal.Frame(body)
}

// rewrite crash-atomically replaces the highest segment with its header
// plus one record per key of live, in key order. Caller holds s.mu (or
// has exclusive access during open).
func (s *DiskStore) rewrite(live map[string]sweep.Point) error {
	hdr, err := json.Marshal(segHeader{Format: segmentFormat, Segment: s.segN})
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	err = wal.Rewrite(s.segPath(s.segN), func(w io.Writer) error {
		if _, err := w.Write(append(hdr, '\n')); err != nil {
			return err
		}
		for _, k := range keys {
			line, err := encodeRecord(k, live[k])
			if err != nil {
				return err
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("service: writing segment %d: %w", s.segN, err)
	}
	return nil
}

// Get returns the stored point for key, if any.
func (s *DiskStore) Get(key string) (sweep.Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[key]
	return p, ok
}

// Len reports the number of stored points.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Points returns every stored point for which keep reports true (nil
// keep means all), in no particular order.
func (s *DiskStore) Points(keep func(sweep.Point) bool) []sweep.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sweep.Point, 0, len(s.m))
	for _, p := range s.m {
		if keep == nil || keep(p) {
			out = append(out, p)
		}
	}
	return out
}

// Put stores a completed point under key and appends it durably. The
// in-memory map is updated even when the disk append fails (the store
// degrades to MemStore semantics and records the failure in Err), so a
// persistence fault never costs a finished evaluation.
func (s *DiskStore) Put(key string, p sweep.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[key]; exists {
		s.dead++
	}
	s.m[key] = p
	if s.seg == nil || s.closed {
		return
	}
	line, err := encodeRecord(key, p)
	if err != nil {
		s.fail(fmt.Errorf("service: encoding record: %w", err))
		return
	}
	if err := s.inj.Hit(ChaosSiteStoreAppend); err != nil {
		s.fail(fmt.Errorf("service: appending record: %w", err))
		return
	}
	if n, err := s.seg.Append(line); err != nil {
		// A partial record that reached the file is cut back off so the
		// segment stays append-safe. If the repair itself fails (or chaos
		// says the crash landed first), the torn bytes are the segment's
		// final record for open-time recovery to truncate — so the
		// segment must be retired NOW: one more append would glue onto
		// the newline-less tail and corrupt a good record.
		if n > 0 && s.inj.Hit(ChaosSiteStoreRepair) == nil && s.seg.Repair() == nil {
			return // repaired: the segment is clean again
		}
		s.fail(fmt.Errorf("service: appending record: %w", err))
		if n > 0 {
			s.seg.Close() //nolint:errcheck // already failed; memory keeps serving
			s.seg = nil
		}
		return
	}
	if s.sinceSync++; s.sinceSync >= s.opt.SyncEvery {
		s.sinceSync = 0
		if err := s.inj.Hit(ChaosSiteStoreSync); err != nil {
			s.fail(fmt.Errorf("service: fsync: %w", err))
		} else if err := s.seg.Sync(); err != nil {
			s.fail(fmt.Errorf("service: fsync: %w", err))
		}
	}
	if s.dead >= s.opt.CompactMinDead && s.err == nil {
		s.compactLocked() //nolint:errcheck // recorded in s.err
	}
}

// fail records the first persistence failure. The store keeps serving
// (and accepting) points from memory.
func (s *DiskStore) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err reports the first persistence failure, if any. A non-nil value
// means some completed points may not survive a restart.
func (s *DiskStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats snapshots the disk-state counters.
func (s *DiskStore) Stats() DiskStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Points = len(s.m)
	st.Dead = s.dead
	return st
}

// Dir reports the store directory.
func (s *DiskStore) Dir() string { return s.dir }

// Compact runs one compaction pass now. A Put that reaches
// CompactMinDead dead records runs the same pass, unless an earlier
// persistence failure is on record. Get, Put and the other methods wait
// for it.
func (s *DiskStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.seg == nil {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites the live map over the highest segment, reopens
// it for appends, and deletes the lower segments. A crash before the
// rewrite's rename leaves the old segments; one after it leaves the
// snapshot, which replays last and so wins over any lower segment not
// yet deleted. Caller holds s.mu.
func (s *DiskStore) compactLocked() error {
	err := s.inj.Hit(ChaosSiteStoreCompact)
	if err == nil {
		err = s.rewrite(s.m)
	}
	if err != nil {
		err = fmt.Errorf("service: compaction: %w", err)
		s.fail(err)
		return err
	}
	s.seg.Close() //nolint:errcheck // replaced by the rename
	if s.seg, err = wal.Open(s.segPath(s.segN), s.inj, ChaosSiteStoreWrite); err != nil {
		err = fmt.Errorf("service: compaction: %w", err)
		s.fail(err)
		return err
	}
	segs, err := s.listSegments()
	if err != nil {
		s.fail(err)
		return err
	}
	for _, n := range segs {
		if n < s.segN {
			if err := os.Remove(s.segPath(n)); err != nil && !os.IsNotExist(err) {
				err = fmt.Errorf("service: compaction: removing segment %d: %w", n, err)
				s.fail(err)
				return err
			}
		}
	}
	s.sinceSync, s.dead = 0, 0
	s.stats.Segments = 1
	s.stats.Compactions++
	return nil
}

// Close seals the store: the segment is fsynced and closed. Get/Len/
// Points keep serving from memory; further Puts update only memory.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.seg != nil {
		if err := s.seg.Close(); err != nil {
			s.fail(fmt.Errorf("service: closing store: %w", err))
		}
		s.seg = nil
	}
	return s.err
}
