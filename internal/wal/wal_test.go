package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"twolevel/internal/chaos"
)

// TestFrameMatchesLegacyEncoding pins the on-disk frame: stores and
// journals written as json.Marshal of {"crc","rec"} must stay readable,
// and new lines must be the same bytes.
func TestFrameMatchesLegacyEncoding(t *testing.T) {
	for _, rec := range []string{
		`{"key":"k","point":{"label":"1:0","tpi_ns":5}}`,
		`{"op":"grant","lease":"l1","keys":["a","b"]}`,
		`"\u003cescaped\u003e"`,
		`0`,
	} {
		legacy, err := json.Marshal(struct {
			CRC uint32          `json:"crc"`
			Rec json.RawMessage `json:"rec"`
		}{crc32.ChecksumIEEE([]byte(rec)), json.RawMessage(rec)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Frame([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if want := append(legacy, '\n'); !bytes.Equal(got, want) {
			t.Errorf("Frame(%s) = %s, legacy encoding %s", rec, got, want)
		}
		back, err := Unframe(got)
		if err != nil || string(back) != rec {
			t.Errorf("Unframe(Frame(%s)) = %s, %v", rec, back, err)
		}
	}
	if _, err := Frame([]byte(`{"unterminated"`)); err == nil {
		t.Error("Frame accepted a record that is not JSON")
	}
	if _, err := Unframe([]byte(`{"crc":0}`)); err == nil {
		t.Error("Unframe accepted a frame without a record")
	}
}

// TestScanFileRepairsOnlyAcceptedLogs: the torn tail is truncated once
// the caller accepted the log, and a rejected file is left untouched.
func TestScanFileRepairsOnlyAcceptedLogs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	const data = "hdr\nrec1\nrec2\nto"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := ScanFile(path+".absent", nil); !errors.Is(err, os.ErrNotExist) || l.Header != nil || l.Torn != -1 {
		t.Fatalf("ScanFile of a missing file = %+v, %v; want an empty log and ErrNotExist", l, err)
	}
	reject := errors.New("not my format")
	if _, err := ScanFile(path, func(Log) error { return reject }); !errors.Is(err, reject) {
		t.Fatalf("ScanFile err = %v, want the accept error", err)
	}
	if b, _ := os.ReadFile(path); string(b) != data {
		t.Fatalf("rejected log was modified: %q", b)
	}
	l, err := ScanFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(l.Header) != "hdr\n" || len(l.Records) != 2 || l.Torn != int64(len(data)-2) {
		t.Fatalf("ScanFile = %+v", l)
	}
	if b, _ := os.ReadFile(path); string(b) != "hdr\nrec1\nrec2\n" {
		t.Fatalf("torn tail not truncated: %q", b)
	}
}

// TestFileRepairCutsTornAppend: a torn append is cut back off, and the
// next append lands on a clean line boundary.
func TestFileRepairCutsTornAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("hdr\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := chaos.New(1)
	in.Install(chaos.Rule{Site: "append", Short: true, Times: 1})
	f, err := Open(path, in, "append")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Append([]byte("torn record\n")); err == nil || n == 0 {
		t.Fatalf("Append = %d, %v; want a partial write and an error", n, err)
	}
	if err := f.Repair(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append([]byte("whole\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "hdr\nwhole\n" {
		t.Fatalf("log after repair = %q", b)
	}
}

// TestRewriteIsAllOrNothing: a failed rewrite leaves the old file and no
// temp file; a successful one replaces the content.
func TestRewriteIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Rewrite(path, func(w io.Writer) error {
		w.Write([]byte("partial\n")) //nolint:errcheck // the failure below aborts
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Rewrite err = %v, want boom", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "old\n" {
		t.Fatalf("failed rewrite changed the file: %q", b)
	}
	if err := Rewrite(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "new\n" {
		t.Fatalf("rewrite left %q", b)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("rewrite left temp files: %v", ents)
	}
}

// FuzzScan: on any input Scan returns pieces that concatenate back to
// it, every record is exactly one complete line, and the torn offset is
// -1 or the start of the newline-less last line.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{"", "\n", "hdr", "hdr\n", "hdr\nrec\n", "hdr\nrec\ntorn", "\n\n\nx"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := Scan(data)
		var got []byte
		got = append(got, l.Header...)
		for _, r := range l.Records {
			if bytes.IndexByte(r, '\n') != len(r)-1 {
				t.Fatalf("record %q is not one complete line", r)
			}
			got = append(got, r...)
		}
		if l.Header == nil && len(l.Records) > 0 {
			t.Fatal("records without a header")
		}
		switch {
		case l.Torn == -1:
			if len(data) > 0 && data[len(data)-1] != '\n' {
				t.Fatalf("newline-less tail of %q not reported", data)
			}
		case l.Torn < 0 || l.Torn >= int64(len(data)):
			t.Fatalf("torn offset %d out of range for %d bytes", l.Torn, len(data))
		default:
			tail := data[l.Torn:]
			if bytes.IndexByte(tail, '\n') >= 0 || (l.Torn > 0 && data[l.Torn-1] != '\n') {
				t.Fatalf("torn offset %d is not the start of the last line of %q", l.Torn, data)
			}
			got = append(got, tail...)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pieces %q do not concatenate back to %q", got, data)
		}
	})
}

// FuzzUnframe: for any record and any single-byte change to its frame,
// Unframe either rejects the line or returns exactly the framed record.
func FuzzUnframe(f *testing.F) {
	f.Add([]byte(`{"key":"k","point":{"tpi_ns":5}}`), uint(10), byte('x'))
	f.Add([]byte(`{"op":"grant","keys":["a"]}`), uint(3), byte('C'))
	f.Add([]byte(`[1, 2]`), uint(0), byte(' '))
	f.Fuzz(func(t *testing.T, rec []byte, pos uint, b byte) {
		line, err := Frame(rec)
		if err != nil {
			return // not JSON: nothing to frame
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, rec); err != nil {
			t.Fatal(err)
		}
		want, err := Unframe(line)
		if err != nil || !bytes.Equal(want, compact.Bytes()) {
			t.Fatalf("Unframe(Frame(%q)) = %q, %v", rec, want, err)
		}
		mut := bytes.Clone(line)
		mut[pos%uint(len(mut))] = b
		if got, err := Unframe(mut); err == nil && !bytes.Equal(got, want) {
			t.Fatalf("changed frame %q accepted with record %q, want %q", mut, got, want)
		}
	})
}
