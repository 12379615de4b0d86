package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"datasculpt/internal/textproc"
)

// This file implements streaming split access for corpora too large to
// materialize: a JSONL interchange format whose records are written in id
// order (the WRENCH map layout marshals keys lexicographically — "10"
// sorts before "2" — so it cannot be consumed as a stream), an
// iterator-style Reader over either format, and chunked featurization
// that keeps peak memory proportional to the chunk size instead of the
// corpus.

// Reader iterates a split one example at a time. Next returns (nil,
// io.EOF) after the last example; Close releases the underlying source.
type Reader interface {
	Next() (*Example, error)
	Close() error
}

// SliceReader adapts an in-memory split to the Reader interface.
type SliceReader struct {
	split []*Example
	pos   int
}

// NewSliceReader returns a Reader over the given examples.
func NewSliceReader(split []*Example) *SliceReader {
	return &SliceReader{split: split}
}

// Next implements Reader.
func (r *SliceReader) Next() (*Example, error) {
	if r.pos >= len(r.split) {
		return nil, io.EOF
	}
	e := r.split[r.pos]
	r.pos++
	return e, nil
}

// Close implements Reader (no-op).
func (r *SliceReader) Close() error { return nil }

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

// SaveDirJSONL writes the dataset's meta.json plus train/valid/test as
// .jsonl files — the streamable counterpart of SaveDir.
func (d *Dataset) SaveDirJSONL(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: creating %s: %w", dir, err)
	}
	taskName := "text"
	if d.Task == RelationClassification {
		taskName = "relation"
	}
	meta := metaFile{
		Name:            d.Name,
		Task:            taskName,
		Classes:         d.ClassNames,
		Imbalanced:      d.Imbalanced,
		TrainLabeled:    d.TrainLabeled,
		TaskDescription: d.TaskDescription,
		InstanceNoun:    d.InstanceNoun,
	}
	if d.DefaultClass != NoDefaultClass {
		dc := d.DefaultClass
		meta.DefaultClass = &dc
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
		return err
	}
	for _, split := range []struct {
		file string
		exs  []*Example
	}{
		{"train.jsonl", d.Train},
		{"valid.jsonl", d.Valid},
		{"test.jsonl", d.Test},
	} {
		f, err := os.Create(filepath.Join(dir, split.file))
		if err != nil {
			return fmt.Errorf("dataset: creating %s: %w", split.file, err)
		}
		werr := WriteSplitJSONL(f, split.exs)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return fmt.Errorf("dataset: closing %s: %w", split.file, cerr)
		}
	}
	return nil
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

// Next implements Reader. Records must arrive in id order; ids are
// re-based to the sequential slice position exactly as LoadDir does.
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

// Close implements Reader.
func (r *JSONLReader) Close() error { return r.f.Close() }

// ReadChunks drains the reader in chunks of at most chunkSize examples,
// invoking fn on each; the chunk slice is reused across calls, so fn must
// not retain it. A non-positive chunkSize selects 1024.
func ReadChunks(r Reader, chunkSize int, fn func(chunk []*Example) error) error {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	chunk := make([]*Example, 0, chunkSize)
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		chunk = append(chunk, e)
		if len(chunk) == chunkSize {
			if err := fn(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	if len(chunk) > 0 {
		return fn(chunk)
	}
	return nil
}

// StreamFeatures fits the featurizer and featurizes a corpus in two
// streaming passes — pass 1 accumulates document frequencies chunk by
// chunk (BeginFit/FitChunk/FinishFit), pass 2 transforms each chunk
// through the featurizer's parallel TransformAll and hands the vectors to
// emit with the absolute offset of the chunk's first document. open is
// called once per pass; peak memory is one chunk of examples plus its
// vectors, never the corpus. The produced vectors are bit-identical to
// feat.TransformAll over the materialized corpus.
func StreamFeatures(open func() (Reader, error), feat *textproc.Featurizer, chunkSize int, emit func(start int, vecs []*textproc.SparseVector) error) error {
	r, err := open()
	if err != nil {
		return err
	}
	if err := feat.BeginFit(); err != nil {
		r.Close()
		return err
	}
	tokens := make([][]string, 0, chunkSize)
	err = ReadChunks(r, chunkSize, func(chunk []*Example) error {
		tokens = tokens[:0]
		for _, e := range chunk {
			tokens = append(tokens, e.FeatureTokens())
		}
		feat.FitChunk(tokens)
		return nil
	})
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := feat.FinishFit(); err != nil {
		return err
	}

	r, err = open()
	if err != nil {
		return err
	}
	start := 0
	err = ReadChunks(r, chunkSize, func(chunk []*Example) error {
		tokens = tokens[:0]
		for _, e := range chunk {
			tokens = append(tokens, e.FeatureTokens())
		}
		vecs := feat.TransformAll(tokens)
		eerr := emit(start, vecs)
		start += len(chunk)
		return eerr
	})
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	return err
}
