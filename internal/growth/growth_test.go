package growth

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/ckpt"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
)

var (
	trainOnce sync.Once
	trainedB  *bundle.Bundle
	trainedD  *dataset.Dataset
	savedPath string
	// trainedDir holds the saved fixture; TestMain removes it.
	trainedDir string
	trainErr   error
)

// TestMain removes the shared fixture's directory once every test of the
// binary has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if trainedDir != "" {
		os.RemoveAll(trainedDir)
	}
	os.Exit(code)
}

// trained runs the offline pipeline once per test binary and hands
// every test the same parent artifact (the registry tests' pattern).
// Tests that need a private bundle load a fresh copy from the path.
func trained(t testing.TB) (*bundle.Bundle, *dataset.Dataset, string) {
	t.Helper()
	trainOnce.Do(func() {
		d, err := dataset.Load("youtube", 11, 0.4)
		if err != nil {
			trainErr = err
			return
		}
		cfg := growthPipeline()
		res, err := core.Run(d, cfg)
		if err != nil {
			trainErr = err
			return
		}
		b, err := bundle.New(d, cfg, res)
		if err != nil {
			trainErr = err
			return
		}
		dir, err := os.MkdirTemp("", "growth-test-*")
		if err != nil {
			trainErr = err
			return
		}
		trainedDir = dir
		path := filepath.Join(dir, "model.json")
		if err := bundle.Save(path, b); err != nil {
			trainErr = err
			return
		}
		trainedB, trainedD, savedPath = b, d, path
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trainedB, trainedD, savedPath
}

// growthPipeline is both the offline training config the parent is
// built with and the daemon's cycle config — matching ConfigHash
// lineage, small enough for test budgets.
func growthPipeline() core.Config {
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Iterations = 15
	cfg.Seed = 11
	cfg.FeatureDim = 2048
	cfg.EndModel.Epochs = 3
	cfg.Parallelism = 1
	return cfg
}

// corpusTexts picks n deterministic texts from the test split — the
// stand-in for captured serving traffic.
func corpusTexts(d *dataset.Dataset, n int) []string {
	texts := make([]string, 0, n)
	for _, e := range d.Test {
		if len(texts) == n {
			break
		}
		if e.Text != "" {
			texts = append(texts, e.Text)
		}
	}
	return texts
}

func newTestRegistry(t *testing.T, opts registry.Options, path string) *registry.Registry {
	t.Helper()
	reg := registry.New(obs.New(nil, obs.NewRegistry(), nil), opts)
	t.Cleanup(reg.Close)
	if err := reg.Register("t", path); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestReservoirSampling(t *testing.T) {
	r := NewReservoir("t", 4, 16, 1)
	if n := r.Capture("other", []string{"a", "b"}); n != 0 {
		t.Fatalf("foreign tenant admitted %d texts", n)
	}
	long := string(make([]byte, 17))
	if n := r.Capture("t", []string{"", long}); n != 0 {
		t.Fatalf("empty/oversized admitted %d texts", n)
	}
	if n := r.Capture("t", []string{"a", "b", "c"}); n != 3 {
		t.Fatalf("admitted %d, want 3", n)
	}
	// Feed past capacity: the sample stays bounded, Total keeps counting.
	for i := 0; i < 40; i++ {
		r.Capture("t", []string{"x", "y"})
	}
	if r.Len() != 4 {
		t.Fatalf("reservoir holds %d, capacity 4", r.Len())
	}
	if r.Total() != 83 {
		t.Fatalf("total %d, want 83", r.Total())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot has %d texts", len(got))
	}
	if r.Len() != 0 {
		t.Fatalf("snapshot did not drain: %d left", r.Len())
	}

	// The same seed over the same capture sequence keeps the same texts:
	// the sample is a deterministic function of traffic.
	a, b := NewReservoir("t", 8, 0, 7), NewReservoir("t", 8, 0, 7)
	seq := []string{"q", "w", "e", "r", "t", "y", "u", "i", "o", "p", "a", "s", "d", "f"}
	for _, s := range seq {
		a.Capture("t", []string{s})
		b.Capture("t", []string{s})
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshots differ in size: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("snapshot diverged at %d: %q vs %q", i, sa[i], sb[i])
		}
	}
}

func TestDaemonConfigValidation(t *testing.T) {
	b, d, path := trained(t)
	reg := newTestRegistry(t, registry.Options{}, path)
	base := Config{Tenant: "t", Registry: reg, Base: d, Parent: b, Pipeline: growthPipeline(), StateDir: t.TempDir()}

	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty-tenant", func(c *Config) { c.Tenant = "" }},
		{"nil-registry", func(c *Config) { c.Registry = nil }},
		{"nil-base", func(c *Config) { c.Base = nil }},
		{"nil-parent", func(c *Config) { c.Parent = nil }},
		{"invalid-parent", func(c *Config) {
			p := *b
			p.Dataset.ClassNames = p.Dataset.ClassNames[:1]
			c.Parent = &p
		}},
		{"empty-state-dir", func(c *Config) { c.StateDir = "" }},
	} {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}

	rel := *d
	rel.Task = dataset.RelationClassification
	cfg := base
	cfg.Base = &rel
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a relation-classification base dataset")
	}
}

// TestGrowthSmoke drives one full cycle end to end: capture, snapshot,
// propose, bundle, gate, promote — and checks the durable state a
// restarted daemon would boot from: the promoted row's archive, not the
// parent.json boot pin.
func TestGrowthSmoke(t *testing.T) {
	_, d, path := trained(t)
	parent, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, registry.Options{}, path)
	stateDir := t.TempDir()
	cfg := Config{
		Tenant: "t", Registry: reg, Base: d, Parent: parent,
		Pipeline: growthPipeline(), StateDir: stateDir,
		Budget: 4, MinCorpus: 8,
		now: func() int64 { return 1_754_000_000 },
	}
	dmn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rootHash := dmn.Status().Parent

	// Below MinCorpus the tick is a no-op: no record, no workspace.
	if rec, err := dmn.RunCycle(context.Background()); err != nil || rec != nil {
		t.Fatalf("undersized corpus: rec=%v err=%v, want nil/nil", rec, err)
	}

	texts := corpusTexts(d, 24)
	dmn.Capture("other", texts) // scoped out
	dmn.Capture("t", texts)
	if dmn.Reservoir().Len() != 24 {
		t.Fatalf("reservoir holds %d, want 24", dmn.Reservoir().Len())
	}

	rec, err := dmn.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Cycle != 1 || rec.CorpusLen != 24 {
		t.Fatalf("cycle record %+v", rec)
	}
	if rec.Steps == 0 || rec.Steps > 4 {
		t.Fatalf("cycle ran %d steps with budget 4", rec.Steps)
	}
	if rec.Parent != rootHash {
		t.Fatalf("record parent %s, lineage root %s", rec.Parent, rootHash)
	}
	// The fixture is deterministic: this seed proposes new LFs and the
	// retrained candidate clears every gate.
	if rec.Outcome != OutcomePromoted {
		t.Fatalf("outcome %s (new_lfs=%d candidate=%.4f parent=%.4f verify=%.3f), want %s",
			rec.Outcome, rec.NewLFs, rec.CandidateMetric, rec.ParentMetric, rec.VerifyAgreement, OutcomePromoted)
	}
	if rec.NewLFs == 0 || rec.CandidateHash == "" || rec.Generation == 0 {
		t.Fatalf("promoted record incomplete: %+v", rec)
	}

	st := dmn.Status()
	if st.Captured != 0 {
		t.Fatalf("reservoir not drained by snapshot: %d", st.Captured)
	}
	if st.Parent != rec.CandidateHash || st.GrowthCycle != 1 {
		t.Fatalf("lineage head %s cycle %d, want %s cycle 1", st.Parent, st.GrowthCycle, rec.CandidateHash)
	}
	if st.Stats.Cycles != 1 || st.Stats.Promoted != 1 || st.LastCycle == nil {
		t.Fatalf("stats %+v", st.Stats)
	}

	// Durable state: workspace gone, candidate archived, and parent.json
	// still the boot pin — the journal row alone moved the head.
	if _, err := os.Stat(filepath.Join(stateDir, "cycle")); !os.IsNotExist(err) {
		t.Fatalf("cycle workspace not cleaned: %v", err)
	}
	archived, err := bundle.Load(filepath.Join(stateDir, "candidate-1.json"))
	if err != nil {
		t.Fatalf("candidate archive: %v", err)
	}
	if h, _ := bundle.Fingerprint(archived); h != rec.CandidateHash {
		t.Fatalf("archive hash %s, record %s", h, rec.CandidateHash)
	}
	pin, err := bundle.Load(filepath.Join(stateDir, "parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := bundle.Fingerprint(pin); h != rootHash || pin.Provenance.GrowthCycle != 0 {
		t.Fatalf("parent.json moved off the boot pin: hash %s, provenance %+v", h, pin.Provenance)
	}

	// A restarted daemon boots candidate-1.json, not the boot bundle.
	dmn2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := dmn2.Status()
	if st2.Parent != rec.CandidateHash || st2.GrowthCycle != 1 || st2.Stats.Cycles != 1 {
		t.Fatalf("restarted daemon status %+v", st2)
	}
	testLineageHead(t, cfg, rec)

	// The drained reservoir means the next tick skips again.
	if rec2, err := dmn.RunCycle(context.Background()); err != nil || rec2 != nil {
		t.Fatalf("post-cycle tick: rec=%v err=%v, want nil/nil", rec2, err)
	}
}

// TestGrowthEvaluateSpans checks that a cycle's candidate evaluation
// traces under growth.evaluate: the pipeline's evaluate span is its
// child, and train_proba nests under evaluate.
func TestGrowthEvaluateSpans(t *testing.T) {
	_, d, path := trained(t)
	parent, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewMemoryTracer()
	dmn, err := New(Config{
		Tenant: "t", Registry: newTestRegistry(t, registry.Options{}, path), Base: d, Parent: parent,
		Pipeline: growthPipeline(), StateDir: t.TempDir(),
		Budget: 4, MinCorpus: 8, Obs: obs.New(tr, obs.NewRegistry(), nil),
		now: func() int64 { return 1_754_000_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	dmn.Capture("t", corpusTexts(d, 24))
	rec, err := dmn.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.NewLFs == 0 {
		t.Fatalf("cycle record %+v: the fixture must propose new LFs", rec)
	}
	only := func(name string) obs.SpanData {
		t.Helper()
		spans := tr.Named(name)
		if len(spans) != 1 {
			t.Fatalf("%d %s spans, want 1", len(spans), name)
		}
		return spans[0]
	}
	growthEval, eval, proba := only("growth.evaluate"), only("evaluate"), only("train_proba")
	if eval.Parent != growthEval.Span {
		t.Errorf("evaluate span's parent is %q, want growth.evaluate (%q)", eval.Parent, growthEval.Span)
	}
	if proba.Parent != eval.Span {
		t.Errorf("train_proba span's parent is %q, want evaluate (%q)", proba.Parent, eval.Span)
	}
}

// testLineageHead restarts copies of a state dir whose journal holds
// promoted row rec: New must refuse a missing or mismatched archive,
// and a later non-promoted row must not move the head off rec's
// candidate.
func testLineageHead(t *testing.T, cfg Config, rec *CycleRecord) {
	t.Helper()
	archive := fmt.Sprintf("candidate-%d.json", rec.Cycle)
	clone := func(t *testing.T) Config {
		c := cfg
		c.StateDir = t.TempDir()
		for _, name := range []string{"growth.jsonl", "parent.json", archive} {
			data, err := os.ReadFile(filepath.Join(cfg.StateDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(c.StateDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	t.Run("archive-missing", func(t *testing.T) {
		c := clone(t)
		if err := os.Remove(filepath.Join(c.StateDir, archive)); err != nil {
			t.Fatal(err)
		}
		if _, err := New(c); err == nil {
			t.Fatal("New booted without the promoted row's archive")
		}
	})
	t.Run("archive-mismatch", func(t *testing.T) {
		c := clone(t)
		pin, err := os.ReadFile(filepath.Join(c.StateDir, "parent.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(c.StateDir, archive), pin, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(c); err == nil || !strings.Contains(err.Error(), rec.CandidateHash) {
			t.Fatalf("New accepted an archive that is not the journaled candidate: %v", err)
		}
	})
	t.Run("promoted-then-rejected", func(t *testing.T) {
		c := clone(t)
		// A later verify-rejected row archives its own candidate; the
		// parent.json bytes stand in for it (a different fingerprint).
		pin, err := os.ReadFile(filepath.Join(c.StateDir, "parent.json"))
		if err != nil {
			t.Fatal(err)
		}
		next := rec.Cycle + 1
		if err := os.WriteFile(filepath.Join(c.StateDir, fmt.Sprintf("candidate-%d.json", next)), pin, 0o644); err != nil {
			t.Fatal(err)
		}
		row := CycleRecord{Cycle: next, Outcome: OutcomeRolledBack, NewLFs: 1,
			CandidateHash: "rejected", Parent: rec.CandidateHash, CreatedUnix: rec.CreatedUnix}
		if err := ckpt.Append(filepath.Join(c.StateDir, "growth.jsonl"), row); err != nil {
			t.Fatal(err)
		}
		d, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if st := d.Status(); st.Parent != rec.CandidateHash || st.Stats.Cycles != 2 || st.Stats.RolledBack != 1 {
			t.Fatalf("restart after a rejected cycle: head %s (want %s), stats %+v", st.Parent, rec.CandidateHash, st.Stats)
		}
	})
}

// TestGrowthJournalFailureKeepsParent fails the journal append of a
// promoted cycle: the registry already serves the candidate, but the
// lineage head must stay the parent until the row is durable, so the
// retried cycle resumes from its workspace and records the same row.
func TestGrowthJournalFailureKeepsParent(t *testing.T) {
	_, d, path := trained(t)
	parent, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	cfg := Config{
		Tenant: "t", Registry: newTestRegistry(t, registry.Options{}, path), Base: d, Parent: parent,
		Pipeline: growthPipeline(), StateDir: stateDir,
		Budget: 4, MinCorpus: 8,
		now: func() int64 { return 1_754_000_000 },
	}
	dmn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rootHash := dmn.Status().Parent

	// A directory where the journal belongs makes the append fail.
	journal := filepath.Join(stateDir, "growth.jsonl")
	if err := os.Mkdir(journal, 0o755); err != nil {
		t.Fatal(err)
	}
	dmn.Capture("t", corpusTexts(d, 24))
	if _, err := dmn.RunCycle(context.Background()); err == nil {
		t.Fatal("cycle succeeded without a journal")
	}
	if st := dmn.Status(); st.Parent != rootHash || st.Stats.Cycles != 0 {
		t.Fatalf("lineage moved without a journal row: parent %s (root %s), stats %+v", st.Parent, rootHash, st.Stats)
	}

	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	rec, err := dmn.RunCycle(context.Background())
	if err != nil {
		t.Fatalf("retry after the failed append: %v", err)
	}
	if rec.Cycle != 1 || rec.Outcome != OutcomePromoted || rec.Parent != rootHash {
		t.Fatalf("retried cycle record %+v", rec)
	}
	if st := dmn.Status(); st.Parent != rec.CandidateHash || st.Stats.Cycles != 1 {
		t.Fatalf("after the retry: parent %s (candidate %s), stats %+v", st.Parent, rec.CandidateHash, st.Stats)
	}
}
