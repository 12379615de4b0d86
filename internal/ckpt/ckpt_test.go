package ckpt

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	N    int    `json:"n"`
	Name string `json:"name,omitempty"`
}

func TestLoadMissingFile(t *testing.T) {
	recs, err := Load[rec](filepath.Join(t.TempDir(), "nope.jsonl"), nil)
	if err != nil {
		t.Fatalf("missing file must load as empty, got %v", err)
	}
	if recs != nil {
		t.Fatalf("missing file must load as nil, got %v", recs)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(rec{N: i, Name: "r"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.N != i {
			t.Fatalf("record %d: N=%d", i, r.N)
		}
	}
}

func TestAppendReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	if err := Append(path, rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, rec{N: 2}); err != nil {
		t.Fatal(err)
	}
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].N != 1 || recs[1].N != 2 {
		t.Fatalf("got %+v", recs)
	}
}

func TestTornFinalLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	data := `{"n":1}` + "\n" + `{"n":2}` + "\n" + `{"n":3,"na`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatalf("torn final line must be tolerated, got %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestMalformedMidFileFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	data := `{"n":1}` + "\n" + `{"n":2,"tor` + "\n" + `{"n":3}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load[rec](path, nil)
	if err == nil {
		t.Fatal("malformed line followed by more data must be an error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name line 2: %v", err)
	}
}

func TestValidityCheckTreatedAsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	// The final record decodes but fails the shape check: tolerated like
	// a torn line. The same record mid-file is corruption.
	data := `{"n":1,"name":"a"}` + "\n" + `{"n":2}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := func(r *rec) bool { return r.Name != "" }
	recs, err := Load[rec](path, valid)
	if err != nil {
		t.Fatalf("invalid final record must be tolerated, got %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}

	data = `{"n":2}` + "\n" + `{"n":1,"name":"a"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[rec](path, valid); err == nil {
		t.Fatal("invalid mid-file record must be an error")
	}
}

func TestBlankLinesIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	data := `{"n":1}` + "\n\n" + `{"n":2}` + "\n\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

// TestOpenTrimsTornTail appends after a crash mid-append: the torn
// final line must be cut off, or the next record joins it and is lost
// and the one after makes the whole file unloadable.
func TestOpenTrimsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	if err := os.WriteFile(path, []byte(`{"n":1}`+"\n"+`{"n":`), 0o644); err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 3; n++ {
		if err := Append(path, rec{N: n}); err != nil {
			t.Fatal(err)
		}
		recs, err := Load[rec](path, nil)
		if err != nil {
			t.Fatalf("after appending %d: %v", n, err)
		}
		if len(recs) != n || recs[n-1].N != n {
			t.Fatalf("after appending %d: got %+v", n, recs)
		}
	}

	// A file holding only a torn line is emptied; an intact one is kept.
	if err := os.WriteFile(path, []byte(`{"n":`), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("torn-only file kept %q", data)
	}
	if err := Append(path, rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	w, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if data, _ := os.ReadFile(path); string(data) != `{"n":1}`+"\n" {
		t.Fatalf("intact file changed to %q", data)
	}
}

// TestOpenTrimsLongTornTail: a torn tail longer than one read chunk is
// still cut at the last newline before it, however far back that is.
func TestOpenTrimsLongTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	torn := `{"n":2,"name":"` + strings.Repeat("x", 3*4096+17)
	if err := os.WriteFile(path, []byte(`{"n":1}`+"\n"+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, rec{N: 3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"n":1}` + "\n" + `{"n":3}` + "\n"; string(data) != want {
		t.Fatalf("file holds %d bytes %.40q..., want %q", len(data), data, want)
	}
}

// TestOpenRejectsNonRegular: a device is no journal. Open fails at once
// instead of reading it (/dev/null) or reading forever (/dev/full,
// /dev/zero).
func TestOpenRejectsNonRegular(t *testing.T) {
	w, err := Open(os.DevNull)
	if err == nil {
		w.Close()
		t.Fatalf("Open(%s) succeeded", os.DevNull)
	}
	if !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("Open(%s): %v, want a not-a-regular-file error", os.DevNull, err)
	}
}

// TestReplace: Replace writes the whole file, and a callback error or a
// failed rename leaves the target unchanged with no temp file behind.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	onlyTarget := func(t *testing.T, want string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != want {
			t.Fatalf("directory holds %v, want only %s", entries, want)
		}
	}

	if err := Replace(path, write("old\n")); err != nil {
		t.Fatal(err)
	}
	if err := Replace(path, write("new\n")); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "new\n" {
		t.Fatalf("after two replaces: %q, %v", data, err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("replaced file mode %v, %v; want 0644", st.Mode(), err)
	}

	boom := errors.New("boom")
	err := Replace(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("callback error: got %v", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "new\n" {
		t.Fatalf("a failed callback changed the target to %q", data)
	}
	onlyTarget(t, "f.json")

	// A rename onto a non-empty directory fails.
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(sub, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := Replace(sub, write("x")); err == nil {
		t.Fatal("Replace renamed a file over a non-empty directory")
	}
	if st, err := os.Stat(filepath.Join(sub, "keep")); err != nil || !st.IsDir() {
		t.Fatalf("a failed rename changed the target: %v", err)
	}
	onlyTarget(t, "sub")
}
