package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"datasculpt/internal/obs"
)

// seedsOptions is the configuration TestSeedsGolden runs: three seeds
// of a small Youtube run.
func seedsOptions() runOptions {
	return runOptions{
		dataset: "youtube", variant: "base", model: "gpt-3.5", sampler: "random",
		labelModel: "metal", iterations: 10, seeds: 3, scale: 0.2, parallelism: 1,
	}
}

// keepSeeds writes the lines of the checkpoint file src whose seed is
// in seeds to a new file and returns its path.
func keepSeeds(t *testing.T, src string, seeds ...int) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var kept strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		for _, s := range seeds {
			if strings.Contains(line, fmt.Sprintf(`"seed":%d,`, s)) {
				kept.WriteString(line)
			}
		}
	}
	dst := filepath.Join(t.TempDir(), "partial.jsonl")
	if err := os.WriteFile(dst, []byte(kept.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// sortedLines returns the lines of a file in sorted order.
func sortedLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	slices.Sort(lines)
	return lines
}

// TestSeedsGolden pins the stdout of a multi-seed run and of resumes
// from its checkpoint: a -seeds 3 run writing -checkpoint, a -resume of
// a file holding only seeds 1 and 3 (restored lines before and after
// the computed seed 2), and the same resume under a fresh -checkpoint,
// whose write-through file must then hold every seed the first run
// wrote.
func TestSeedsGolden(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	var got bytes.Buffer

	o := seedsOptions()
	o.checkpoint = full
	got.WriteString("== -seeds 3 -checkpoint\n")
	got.Write(captureStdout(t, func() error { return run(context.Background(), o) }))

	partial := keepSeeds(t, full, 1, 3)
	o = seedsOptions()
	o.resume = partial
	got.WriteString("== -resume (seeds 1 and 3 recorded)\n")
	got.Write(captureStdout(t, func() error { return run(context.Background(), o) }))

	fresh := filepath.Join(dir, "fresh.jsonl")
	o.checkpoint = fresh
	got.WriteString("== -resume -checkpoint (fresh file)\n")
	got.Write(captureStdout(t, func() error { return run(context.Background(), o) }))
	if w, g := sortedLines(t, full), sortedLines(t, fresh); !slices.Equal(w, g) {
		t.Errorf("write-through checkpoint is not the full run's:\n got: %q\nwant: %q", g, w)
	}

	golden := filepath.Join("testdata", "seeds.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("multi-seed output drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s",
			golden, got.Bytes(), want)
	}
}

// TestResumeMetrics checks that a resumed run's -metrics-out counts the
// seeds it restored in grid_cells_resumed_total.
func TestResumeMetrics(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	o := seedsOptions()
	o.seeds, o.checkpoint = 2, full
	captureStdout(t, func() error { return run(context.Background(), o) })

	metricsPath := filepath.Join(dir, "metrics.prom")
	ob, cleanup, err := obs.Setup(obs.SetupConfig{MetricsPath: metricsPath})
	if err != nil {
		t.Fatal(err)
	}
	o = seedsOptions()
	o.resume, o.obs = full, ob
	captureStdout(t, func() error { return run(context.Background(), o) })
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := "\ngrid_cells_resumed_total 2\n"; !strings.Contains(string(data), want) {
		t.Errorf("-metrics-out lacks %q:\n%s", strings.TrimSpace(want), data)
	}
}
