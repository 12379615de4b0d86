// Package ckpt owns the two durable write shapes of every subsystem that
// must survive a kill: appending a record to a journal, and replacing a
// whole file.
//
// A journal (the experiment grid checkpoints, the growth loop's cycle
// journals) is JSONL. One record is one JSON line, appended with a
// single Write call and fsynced, so a crash can at worst tear the final
// line — which Load skips, Open cuts off, and the resumed process
// recomputes. A malformed line anywhere else is reported as corruption,
// never silently skipped.
//
// A replaced file (bundles, the growth cycle snapshot) is written to a
// temp file and renamed over its target (Replace), so a crash leaves
// the old file or the new one, never a torn mix.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// maxLine bounds one record on load. No record holds corpus text: the
// largest, a grid cell's result, stays far below it.
const maxLine = 4 * 1024 * 1024

// Writer appends records to a JSONL file. Appends are mutex-serialized
// and issued as one Write each, then synced, so concurrent writers
// cannot interleave bytes and a crash cannot lose a completed line.
type Writer struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens (creating if needed) a regular JSONL file for appending.
// It first cuts off a final line that lacks its '\n' — a torn append,
// since JSON holds no raw newline — so the next record cannot join it
// and be lost. Only the torn tail is read, backwards from the end.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening %s: %w", path, err)
	}
	if err := trimTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: opening %s: %w", path, err)
	}
	return &Writer{f: f}, nil
}

// trimTornTail truncates a regular file after its last '\n', reading
// 4 KiB chunks backwards from the end until it finds one.
func trimTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if !st.Mode().IsRegular() {
		return errors.New("not a regular file")
	}
	keep, buf := int64(0), make([]byte, 4096)
	for off := st.Size(); off > 0 && keep == 0; {
		n := min(off, int64(len(buf)))
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep = off + int64(i) + 1
		}
	}
	if keep < st.Size() {
		return f.Truncate(keep)
	}
	return nil
}

// Append writes one record as a single JSONL line and syncs it to disk.
func (w *Writer) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: encoding record: %w", err)
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(data); err != nil {
		return fmt.Errorf("ckpt: appending record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: syncing: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Append opens path, appends one record, and closes it — for callers
// that write a handful of records per process lifetime and want every
// one durable without holding a file open.
func Append(path string, v any) error {
	w, err := Open(path)
	if err != nil {
		return err
	}
	aerr := w.Append(v)
	cerr := w.Close()
	if aerr != nil {
		return aerr
	}
	return cerr
}

// Load reads every intact record of a JSONL file into T values. A
// missing file is an empty checkpoint (first run), and a torn or
// malformed final line — the footprint of a crash mid-append — is
// skipped rather than fatal. A malformed line anywhere else is an
// error: that is corruption, not a crash artifact. valid, when
// non-nil, extends "malformed" to records that decode but fail the
// caller's shape check (e.g. a required sub-object missing).
func Load[T any](path string, valid func(*T) bool) ([]T, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening %s: %w", path, err)
	}
	defer f.Close()

	var records []T
	var badLine int // 1-based line number of the first malformed line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if badLine != 0 {
			// a malformed line followed by more data is corruption
			return nil, fmt.Errorf("ckpt: %s: malformed record at line %d", path, badLine)
		}
		var rec T
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || (valid != nil && !valid(&rec)) {
			badLine = line
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: reading %s: %w", path, err)
	}
	return records, nil
}

// Replace writes a whole file through write and moves it over path in
// one rename. write fills a temp file in path's directory through a
// bufio.Writer, which is flushed and fsynced before the rename, and the
// directory is fsynced after it. An error before the rename leaves the
// target unchanged and removes the temp file. The file gets mode 0644.
func Replace(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: replacing %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			err = fmt.Errorf("ckpt: replacing %s: %w", path, err)
		}
	}()
	bw := bufio.NewWriter(f)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
