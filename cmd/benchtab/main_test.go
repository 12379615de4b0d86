package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"datasculpt/internal/experiment"
)

// -update regenerates the testdata/youtube_*.golden files:
// go test ./cmd/benchtab/ -run ReproductionGolden -update
var update = flag.Bool("update", false, "rewrite testdata/youtube_*.golden with the current benchtab output")

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

// checkGolden compares got with testdata/<name>, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("benchtab output drifted from %s (run with -update to regenerate, and regenerate EXPERIMENTS.md with it):\n got:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestReproductionGolden pins `benchtab -all -markdown -datasets youtube`
// at the paper's protocol (5 seeds, full scale, 50 iterations): every
// table and figure on stdout, and the markdown report with its shape
// checks. A change that moves any reproduced number fails here, and
// EXPERIMENTS.md must then be regenerated in the same change.
func TestReproductionGolden(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.md")
	opts := experiment.Options{Datasets: []string{"youtube"}}
	stdout := captureStdout(t, func() error {
		return run(context.Background(), opts, 0, 0, true, true, report)
	})
	md, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "youtube_stdout.golden", stdout)
	checkGolden(t, "youtube_report.golden", md)
}
