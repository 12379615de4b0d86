package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/lf"
)

// TestRunEndToEnd drives the CLI's run path the way the README
// quickstart does: a small training run that saves the LF set and the
// model bundle, prints analysis, checkpoints the seed, and then resumes
// from that checkpoint.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	lfsPath := filepath.Join(dir, "lfs.json")
	bundlePath := filepath.Join(dir, "model.json")
	ckptPath := filepath.Join(dir, "ckpt.jsonl")

	opts := runOptions{
		dataset: "youtube", variant: "base", model: "gpt-3.5", sampler: "random",
		labelModel: "metal", iterations: 10, seeds: 1, scale: 0.3,
		showLFs: true, analyze: true, saveLFs: lfsPath, saveBundle: bundlePath,
		checkpoint: ckptPath, parallelism: 2,
	}
	if err := run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(lfsPath)
	if err != nil {
		t.Fatal(err)
	}
	lfs, err := lf.UnmarshalLFs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(lfs) == 0 {
		t.Error("saved LF set is empty")
	}

	b, err := bundle.Load(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dataset.Name != "youtube" || len(b.LFs) != len(lfs) || b.EndModel == nil {
		t.Errorf("bundle: dataset %q, %d LFs (saved %d)", b.Dataset.Name, len(b.LFs), len(lfs))
	}
	if b.Provenance.Model != "gpt-3.5" || b.Provenance.CostUSD <= 0 {
		t.Errorf("provenance: %+v", b.Provenance)
	}

	// Resuming from the checkpoint restores the seed instead of re-running;
	// with every seed restored there are no artifacts to save.
	opts.resume = ckptPath
	opts.checkpoint = ""
	opts.saveLFs = ""
	opts.saveBundle = filepath.Join(dir, "unwritten.json")
	if err := run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(opts.saveBundle); !os.IsNotExist(err) {
		t.Error("restored-only run should not write a bundle")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(context.Background(), runOptions{dataset: "no-such-dataset", variant: "base",
		model: "gpt-3.5", sampler: "random", labelModel: "metal", iterations: 2, seeds: 1, scale: 0.3}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run(context.Background(), runOptions{dataset: "youtube", variant: "base",
		model: "no-such-model", sampler: "random", labelModel: "metal", iterations: 2, seeds: 1, scale: 0.3}); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run(context.Background(), runOptions{dataset: "youtube", variant: "base",
		model: "gpt-3.5", sampler: "random", labelModel: "metal", iterations: 2, seeds: 0, scale: 0.3}); err == nil {
		t.Error("zero seeds accepted")
	}
}
