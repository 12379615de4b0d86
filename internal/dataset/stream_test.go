package dataset

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datasculpt/internal/textproc"
)

func drain(t *testing.T, r Reader) []*Example {
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

// TestJSONLRoundTrip: SaveDirJSONL + streaming read reproduces every
// split of a text dataset exactly, in id order.
func TestJSONLRoundTrip(t *testing.T) {
	d, err := Load("youtube", 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.SaveDirJSONL(dir); err != nil {
		t.Fatal(err)
	}
	for split, want := range map[string][]*Example{
		"train": d.Train, "valid": d.Valid, "test": d.Test,
	} {
		r, err := OpenJSONL(filepath.Join(dir, split+".jsonl"), d.Task)
		if err != nil {
			t.Fatal(err)
		}
		sameExamples(t, drain(t, r), want)
	}
}

// TestJSONLRoundTripRelation: entity positions are re-derived on read for
// relation corpora.
func TestJSONLRoundTripRelation(t *testing.T) {
	d, err := Load("spouse", 2, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.SaveDirJSONL(dir); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJSONL(filepath.Join(dir, "train.jsonl"), d.Task)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, r)
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

// TestReadChunks: chunk boundaries cover the whole stream exactly once
// and the callback sees the configured size except for the tail.
func TestReadChunks(t *testing.T) {
	d, err := Load("youtube", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var seen []*Example
	calls := 0
	err = ReadChunks(NewSliceReader(d.Train), 7, func(chunk []*Example) error {
		calls++
		if len(chunk) != 7 && calls != (len(d.Train)+6)/7 {
			t.Fatalf("call %d: short chunk of %d before the tail", calls, len(chunk))
		}
		seen = append(seen, chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(d.Train) + 6) / 7; calls != want {
		t.Fatalf("callback ran %d times, want %d", calls, want)
	}
	sameExamples(t, seen, d.Train)
}

// TestIncrementalFitMatchesOneShot: BeginFit/FitChunk/FinishFit over any
// chunking yields bit-identical vectors to one-shot Fit.
func TestIncrementalFitMatchesOneShot(t *testing.T) {
	d, err := Load("sms", 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	corpus := FeatureCorpus(d.Train)

	oneShot := textproc.NewFeaturizer(2048)
	if err := oneShot.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	chunked := textproc.NewFeaturizer(2048)
	if err := chunked.BeginFit(); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(corpus); lo += 13 {
		hi := lo + 13
		if hi > len(corpus) {
			hi = len(corpus)
		}
		chunked.FitChunk(corpus[lo:hi])
	}
	if err := chunked.FinishFit(); err != nil {
		t.Fatal(err)
	}
	for i, tokens := range corpus {
		a, b := oneShot.Transform(tokens), chunked.Transform(tokens)
		if len(a.Idx) != len(b.Idx) {
			t.Fatalf("doc %d: nnz differs", i)
		}
		for k := range a.Idx {
			if a.Idx[k] != b.Idx[k] || math.Float32bits(a.Val[k]) != math.Float32bits(b.Val[k]) {
				t.Fatalf("doc %d: vectors diverge at %d", i, k)
			}
		}
	}
}

// TestIncrementalFitValidation: double Begin, Finish without Begin, and
// empty streams are rejected; refitting after FinishFit is rejected.
func TestIncrementalFitValidation(t *testing.T) {
	f := textproc.NewFeaturizer(64)
	if err := f.FinishFit(); err == nil {
		t.Error("FinishFit without BeginFit accepted")
	}
	if err := f.BeginFit(); err != nil {
		t.Fatal(err)
	}
	if err := f.BeginFit(); err == nil {
		t.Error("double BeginFit accepted")
	}
	if err := f.FinishFit(); err == nil {
		t.Error("empty incremental fit accepted")
	}
	f.FitChunk([][]string{{"a", "b"}})
	if err := f.FinishFit(); err != nil {
		t.Fatal(err)
	}
	if !f.Fitted() {
		t.Fatal("featurizer not fitted after FinishFit")
	}
	if err := f.BeginFit(); err == nil {
		t.Error("BeginFit after a completed fit accepted")
	}
}

// TestStreamFeaturesBitIdentical: the two-pass streaming featurization
// equals materialized TransformAll bit for bit.
func TestStreamFeaturesBitIdentical(t *testing.T) {
	d, err := Load("youtube", 9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.SaveDirJSONL(dir); err != nil {
		t.Fatal(err)
	}

	ref := textproc.NewFeaturizer(2048)
	if err := ref.Fit(FeatureCorpus(d.Train)); err != nil {
		t.Fatal(err)
	}
	want := ref.TransformAll(FeatureCorpus(d.Train))

	streamed := textproc.NewFeaturizer(2048)
	got := make([]*textproc.SparseVector, len(want))
	open := func() (Reader, error) { return OpenJSONL(filepath.Join(dir, "train.jsonl"), d.Task) }
	err = StreamFeatures(open, streamed, 32, func(start int, vecs []*textproc.SparseVector) error {
		copy(got[start:], vecs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("doc %d never emitted", i)
		}
		if len(got[i].Idx) != len(want[i].Idx) {
			t.Fatalf("doc %d: nnz differs", i)
		}
		for k := range want[i].Idx {
			if got[i].Idx[k] != want[i].Idx[k] ||
				math.Float32bits(got[i].Val[k]) != math.Float32bits(want[i].Val[k]) {
				t.Fatalf("doc %d diverges at component %d", i, k)
			}
		}
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
