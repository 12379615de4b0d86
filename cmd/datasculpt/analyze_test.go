package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates testdata/analyze_lfs.golden:
// go test ./cmd/datasculpt/ -run AnalyzeLFsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/analyze_lfs.golden with the current CLI output")

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	if runErr != nil {
		t.Fatal(runErr)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAnalyzeLFsGolden pins the stdout of a fixed-seed run with both
// -analyze and -lfs set, over a dataset with a labeled train split
// (youtube: accuracies printed) and one without (spouse: coverage only).
func TestAnalyzeLFsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, ds := range []string{"youtube", "spouse"} {
		got.Write(captureStdout(t, func() error {
			return run(context.Background(), runOptions{
				dataset: ds, variant: "base", model: "gpt-3.5", sampler: "random",
				labelModel: "metal", iterations: 20, seeds: 1, scale: 0.2,
				showLFs: true, analyze: true, parallelism: 1,
			})
		}))
	}
	golden := filepath.Join("testdata", "analyze_lfs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-analyze -lfs output drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s",
			golden, got.Bytes(), want)
	}
}
