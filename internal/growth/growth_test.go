package growth

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datasculpt/internal/bundle"
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
	trainErr  error
)

// trained runs the offline pipeline once per test binary and hands
// every test the same parent artifact (the registry tests' pattern).
// Tests that need a private bundle load a fresh copy from the path.
func trained(t *testing.T) (*bundle.Bundle, *dataset.Dataset, string) {
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
// restarted daemon would boot from.
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

	// Durable state: workspace gone, candidate archived, lineage head
	// on disk is the promoted candidate.
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
	head, err := bundle.Load(filepath.Join(stateDir, "parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if head.Provenance.Parent != rootHash || head.Provenance.GrowthCycle != 1 {
		t.Fatalf("lineage head provenance %+v", head.Provenance)
	}

	// A restarted daemon boots the grown lineage, not the boot bundle.
	dmn2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := dmn2.Status()
	if st2.Parent != rec.CandidateHash || st2.GrowthCycle != 1 || st2.Stats.Cycles != 1 {
		t.Fatalf("restarted daemon status %+v", st2)
	}

	// The drained reservoir means the next tick skips again.
	if rec2, err := dmn.RunCycle(context.Background()); err != nil || rec2 != nil {
		t.Fatalf("post-cycle tick: rec=%v err=%v, want nil/nil", rec2, err)
	}
}
