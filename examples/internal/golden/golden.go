// Package golden turns an example program into a test: it runs the
// program's main with os.Stdout captured and compares what it printed
// with the example's testdata/stdout.golden.
//
// -update rewrites the golden file with the current output:
//
//	go test ./examples/... -update
package golden

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with the example's current output")

// Stdout runs fn with os.Stdout redirected to a temp file and returns
// what it printed.
func Stdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Check compares got with testdata/stdout.golden, rewriting the file
// first under -update.
func Check(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
