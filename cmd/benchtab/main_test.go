package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
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
	opts := experiment.Options{Scale: 1, Datasets: []string{"youtube"}}
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

// TestScaleOutOfRange checks that -scale outside (0,1] fails before any
// sweep runs instead of silently running another size.
func TestScaleOutOfRange(t *testing.T) {
	for _, scale := range []float64{0, -0.5, 1.5, 100} {
		opts := experiment.Options{Scale: scale, Datasets: []string{"youtube"}}
		err := run(context.Background(), opts, 2, 0, false, false, "")
		if want := fmt.Sprintf("-scale must be in (0,1], got %g", scale); err == nil || err.Error() != want {
			t.Errorf("scale %g: err = %v, want %q", scale, err, want)
		}
	}
}
