package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file implements the JSONL split format the growth cycle workspace
// persists its corpus snapshots in: one record per line, written in id
// order (the WRENCH map layout marshals keys lexicographically — "10"
// sorts before "2" — so it cannot be read back in order line by line).

// jsonlRecord is one line of a .jsonl split file.
type jsonlRecord struct {
	ID      int    `json:"id"`
	Label   int    `json:"label"`
	Text    string `json:"text"`
	Entity1 string `json:"entity1,omitempty"`
	Entity2 string `json:"entity2,omitempty"`
}

// maxJSONLLine bounds one record; generated documents are short, but real
// corpora (IMDB reviews) can run long.
const maxJSONLLine = 1 << 22

// WriteSplitJSONL streams a split to w as one JSON object per line, in
// slice (= id) order, so readers can consume it without materializing
// the file.
func WriteSplitJSONL(w io.Writer, split []*Example) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range split {
		rec := jsonlRecord{ID: e.ID, Label: e.Label, Text: e.Text, Entity1: e.Entity1, Entity2: e.Entity2}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("dataset: encoding jsonl record %d: %w", e.ID, err)
		}
	}
	return bw.Flush()
}

// JSONLReader streams a .jsonl split file.
type JSONLReader struct {
	f      *os.File
	sc     *bufio.Scanner
	task   TaskType
	name   string
	line   int
	next   int // expected sequential position
	lastID int // id of the previously returned record
}

// OpenJSONL opens a .jsonl split for streaming. task controls entity
// position resolution for relation corpora.
func OpenJSONL(path string, task TaskType) (*JSONLReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening %s: %w", filepath.Base(path), err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), maxJSONLLine)
	return &JSONLReader{f: f, sc: sc, task: task, name: filepath.Base(path)}, nil
}

// Next returns the next example, or (nil, io.EOF) after the last one.
// Records must arrive in id order; ids are re-based to the sequential
// slice position exactly as LoadDir does.
func (r *JSONLReader) Next() (*Example, error) {
	for r.sc.Scan() {
		r.line++
		raw := r.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: %w", r.name, r.line, err)
		}
		// The format contract is strictly increasing ids: a duplicate or
		// an out-of-order id means a torn write or a concatenated file,
		// and silently re-basing it would mislabel every later example.
		if r.next > 0 {
			if rec.ID == r.lastID {
				return nil, fmt.Errorf("dataset: %s line %d: duplicate id %d", r.name, r.line, rec.ID)
			}
			if rec.ID < r.lastID {
				return nil, fmt.Errorf("dataset: %s line %d: id %d out of order after %d", r.name, r.line, rec.ID, r.lastID)
			}
		}
		r.lastID = rec.ID
		e := &Example{
			ID:      r.next,
			Text:    rec.Text,
			Label:   rec.Label,
			Entity1: rec.Entity1,
			Entity2: rec.Entity2,
			E1Pos:   -1,
			E2Pos:   -1,
		}
		r.next++
		e.EnsureTokens()
		if r.task == RelationClassification {
			e.E1Pos, e.E2Pos = locateEntities(e)
			if e.E1Pos < 0 || e.E2Pos < 0 {
				return nil, fmt.Errorf("dataset: %s line %d: entities %q/%q not found in text",
					r.name, r.line, rec.Entity1, rec.Entity2)
			}
		}
		return e, nil
	}
	if err := r.sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: scanning %s: %w", r.name, err)
	}
	return nil, io.EOF
}

// Close releases the underlying file.
func (r *JSONLReader) Close() error { return r.f.Close() }
