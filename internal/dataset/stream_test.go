package dataset

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func drain(t *testing.T, r *JSONLReader) []*Example {
	t.Helper()
	var out []*Example
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameExamples(t *testing.T, got, want []*Example) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d examples, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Text != w.Text || g.Label != w.Label ||
			g.Entity1 != w.Entity1 || g.Entity2 != w.Entity2 ||
			g.E1Pos != w.E1Pos || g.E2Pos != w.E2Pos {
			t.Fatalf("example %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// roundTrip writes split with WriteSplitJSONL and reads it back through
// OpenJSONL, the pair the growth cycle persists its corpus with.
func roundTrip(t *testing.T, split []*Example, task TaskType) []*Example {
	t.Helper()
	path := filepath.Join(t.TempDir(), "split.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	werr := WriteSplitJSONL(f, split)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
	r, err := OpenJSONL(path, task)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, r)
}

// TestJSONLRoundTrip: WriteSplitJSONL + streaming read reproduces every
// split of a text dataset exactly, in id order.
func TestJSONLRoundTrip(t *testing.T) {
	d, err := Load("youtube", 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range [][]*Example{d.Train, d.Valid, d.Test} {
		sameExamples(t, roundTrip(t, split, d.Task), split)
	}
}

// TestJSONLRoundTripRelation: entity positions are re-derived on read for
// relation corpora.
func TestJSONLRoundTripRelation(t *testing.T) {
	d, err := Load("spouse", 2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, d.Train, d.Task)
	sameExamples(t, got, d.Train)
	found := false
	for _, e := range got {
		if e.E1Pos >= 0 && e.E2Pos >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no entity positions resolved from the jsonl stream")
	}
}

// TestGenerateScaleAbove1: scale > 1 grows every split proportionally
// from the same spec.
func TestGenerateScaleAbove1(t *testing.T) {
	small, err := Load("youtube", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Load("youtube", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(big.Train), 3*len(small.Train); got != want {
		t.Errorf("scale-3 train = %d, want %d", got, want)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("youtube", 1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
}

// writeRawJSONL drops raw bytes into a temp .jsonl file and opens it.
func writeRawJSONL(t *testing.T, content string) *JSONLReader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "split.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJSONL(path, TextClassification)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// nextErr drains the reader until it fails and returns that error.
func nextErr(t *testing.T, r *JSONLReader) error {
	t.Helper()
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("reader reached EOF without the expected error")
		}
		if err != nil {
			return err
		}
	}
}

// TestJSONLReaderErrorPaths pins the failure modes of the streaming
// format: a truncated (torn) line, a record past the line bound, a
// duplicate id, and ids running backwards all fail with an error that
// names the file and line instead of silently re-basing ids.
func TestJSONLReaderErrorPaths(t *testing.T) {
	t.Run("truncated-line", func(t *testing.T) {
		// A writer killed mid-record leaves a torn final line.
		err := nextErr(t, writeRawJSONL(t, `{"id":0,"label":1,"text":"ok"}`+"\n"+`{"id":1,"label":0,"tex`))
		if !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("truncated line error does not name line 2: %v", err)
		}
	})
	t.Run("line-too-long", func(t *testing.T) {
		long := `{"id":0,"label":1,"text":"` + strings.Repeat("a", maxJSONLLine) + `"}`
		err := nextErr(t, writeRawJSONL(t, long+"\n"))
		if !strings.Contains(err.Error(), "scanning") {
			t.Fatalf("oversized line error: %v", err)
		}
	})
	t.Run("duplicate-id", func(t *testing.T) {
		err := nextErr(t, writeRawJSONL(t,
			`{"id":3,"label":1,"text":"a"}`+"\n"+`{"id":3,"label":0,"text":"b"}`+"\n"))
		if !strings.Contains(err.Error(), "duplicate id 3") || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("duplicate id error: %v", err)
		}
	})
	t.Run("out-of-order-id", func(t *testing.T) {
		err := nextErr(t, writeRawJSONL(t,
			`{"id":5,"label":1,"text":"a"}`+"\n"+`{"id":2,"label":0,"text":"b"}`+"\n"))
		if !strings.Contains(err.Error(), "id 2 out of order after 5") || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("out-of-order id error: %v", err)
		}
	})
	t.Run("gaps-allowed", func(t *testing.T) {
		// Increasing but non-contiguous ids are legal (filtered exports);
		// positions are re-based sequentially exactly as LoadDir does.
		r := writeRawJSONL(t, `{"id":10,"label":1,"text":"a"}`+"\n\n"+`{"id":20,"label":0,"text":"b"}`+"\n")
		exs := drain(t, r)
		if len(exs) != 2 || exs[0].ID != 0 || exs[1].ID != 1 {
			t.Fatalf("re-based ids wrong: %+v", exs)
		}
	})
}
