// Package wal owns the mechanics shared by the repository's append-only
// JSON-lines logs: the durable result store's segments, the cluster
// coordinator's crash journal and the sweep checkpoint journal. Each of
// those is a record schema on top of this package; the rules below are
// decided here once.
//
//   - A log is a header line followed by record lines, each ending in
//     '\n'. A final line without its newline is the torn tail of a
//     crashed append: Scan reports it, and ScanFile truncates it once the
//     caller accepted the rest, so the log is append-safe again.
//   - A checksummed record line is {"crc": <IEEE CRC32 of rec>, "rec":
//     <rec>}, with the checksum taken over the exact bytes of rec (Frame,
//     Unframe). The sweep journal's records are unframed.
//   - Rewrite replaces a log crash-atomically: temp file, fsync, rename,
//     directory fsync. A crash at any point leaves the old file or the
//     new one, never a mix.
//   - File is the append handle, and can cut a torn append back off.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"twolevel/internal/chaos"
)

// Frame wraps one JSON record as a checksummed line, newline included.
// The record is stored compacted, which keeps the line free of newlines;
// Unframe returns those compacted bytes.
func Frame(rec []byte) ([]byte, error) {
	var body bytes.Buffer
	if err := json.Compact(&body, rec); err != nil {
		return nil, fmt.Errorf("wal: framing record: %w", err)
	}
	line := make([]byte, 0, body.Len()+32)
	line = append(line, `{"crc":`...)
	line = strconv.AppendUint(line, uint64(crc32.ChecksumIEEE(body.Bytes())), 10)
	line = append(line, `,"rec":`...)
	line = append(line, body.Bytes()...)
	return append(line, "}\n"...), nil
}

// frame is the decoded shape of a Frame line.
type frame struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// Unframe verifies one line written by Frame (its trailing newline is
// optional) and returns the record. A line that does not parse, lacks
// its record, or fails the checksum is an error.
func Unframe(line []byte) ([]byte, error) {
	var fr frame
	if err := json.Unmarshal(line, &fr); err != nil {
		return nil, fmt.Errorf("wal: record frame: %w", err)
	}
	if len(fr.Rec) == 0 {
		return nil, errors.New("wal: record frame has no record")
	}
	if got := crc32.ChecksumIEEE(fr.Rec); got != fr.CRC {
		return nil, fmt.Errorf("wal: record checksum %08x, want %08x", got, fr.CRC)
	}
	return fr.Rec, nil
}

// Log is a scanned log. Header, Records and the bytes from Torn on
// concatenate back to the scanned data.
type Log struct {
	// Header is the first line, newline included; nil when the data
	// holds no complete line.
	Header []byte
	// Records are the later complete lines, newlines included.
	Records [][]byte
	// Torn is the offset of the newline-less final line, or -1 when the
	// data ends on a line boundary.
	Torn int64
}

// Scan splits data into header, record lines and torn tail. It never
// fails: judging the lines is the caller's job.
func Scan(data []byte) Log {
	l := Log{Torn: -1}
	for off := 0; off < len(data); {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			l.Torn = int64(off)
			break
		}
		line := data[off : off+n+1 : off+n+1]
		if l.Header == nil {
			l.Header = line
		} else {
			l.Records = append(l.Records, line)
		}
		off += n + 1
	}
	return l
}

// ScanFile scans the log at path and hands it to accept (nil accepts
// anything). Only when accept returns nil is a torn final line truncated
// off the file; a rejected file is left exactly as it was. A file that
// cannot be read scans as an empty log, with the read error.
func ScanFile(path string, accept func(Log) error) (Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Log{Torn: -1}, err
	}
	l := Scan(data)
	if accept != nil {
		if err := accept(l); err != nil {
			return l, err
		}
	}
	if l.Torn >= 0 {
		if err := os.Truncate(path, l.Torn); err != nil {
			return l, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return l, nil
}

// Rewrite crash-atomically replaces (or creates) the file at path with
// what write produces: it writes a temp file in the same directory,
// fsyncs it, renames it over path and fsyncs the directory. On any
// error the file at path is left untouched.
func Rewrite(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // no-op after the rename
	bw := bufio.NewWriterSize(tmp, 256*1024)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()  //nolint:errcheck // advisory: the data itself is fsynced
		d.Close() //nolint:errcheck // read side
	}
	return nil
}

// File is a log open for appends.
type File struct {
	f    *os.File
	w    io.Writer // f, behind the chaos writer for the caller's site
	size int64     // length of the file's complete lines
}

// Open opens the log at path for appending. Writes pass through inj's
// writer for site, so tests can tear or corrupt them; a nil inj costs
// nothing.
func Open(path string, inj *chaos.Injector, site string) (*File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //nolint:errcheck // error path
		return nil, fmt.Errorf("wal: opening log: %w", err)
	}
	return &File{f: f, w: inj.Writer(site, f), size: st.Size()}, nil
}

// Append writes one line. On error n reports the bytes that reached the
// file: a nonzero n is a torn line, which Repair cuts back off.
func (f *File) Append(line []byte) (n int, err error) {
	n, err = f.w.Write(line)
	if err == nil {
		f.size += int64(n)
	}
	return n, err
}

// Repair truncates the file back to the end of its last complete line.
func (f *File) Repair() error { return f.f.Truncate(f.size) }

// Sync flushes the file to stable storage.
func (f *File) Sync() error { return f.f.Sync() }

// Close syncs and closes the file.
func (f *File) Close() error {
	err := f.f.Sync()
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}
