package core_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
)

// growthView is a growth cycle's dataset: head, then label-stripped,
// tokenized examples of the captured texts.
func growthView(base *dataset.Dataset, head []*dataset.Example, texts []string) *dataset.Dataset {
	train := slices.Clip(head)
	for i, text := range texts {
		e := &dataset.Example{ID: len(head) + i, Text: text, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
		e.EnsureTokens()
		train = append(train, e)
	}
	gd := *base
	gd.Train, gd.TrainLabeled = train, false
	return &gd
}

// proposeAndBundle runs budget steps and returns the accepted LF names
// and the fingerprint of the bundle the evaluation assembles.
func proposeAndBundle(t *testing.T, p *core.Proposer, d *dataset.Dataset, cfg core.Config, budget int) ([]string, string) {
	t.Helper()
	defer p.Close()
	for it := 0; it < budget; it++ {
		st, err := p.Step(context.Background(), it)
		if err != nil {
			t.Fatal(err)
		}
		if st.Exhausted {
			break
		}
	}
	var names []string
	for _, f := range p.Accepted() {
		names = append(names, f.Name())
	}
	res, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	b.Provenance.CreatedUnix = 1
	fp, err := bundle.Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	return names, fp
}

// TestProposerPrefixMatchesFresh: growth-style datasets that share one
// Prefix over a label-stripped base split each accept the same LF set
// and assemble a bundle with the same fingerprint as a proposer built
// without a prefix, whose featurizer fit, indexes and train vectors
// cover the whole split, over the same used pool.
func TestProposerPrefixMatchesFresh(t *testing.T) {
	base, err := dataset.Load("youtube", 19, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Seed = 19
	cfg.FeatureDim = 2048
	cfg.EndModel.Epochs = 3
	cfg.Parallelism = 2
	head := make([]*dataset.Example, len(base.Train))
	for i, e := range base.Train {
		c := *e
		c.Label = dataset.NoLabel
		head[i] = &c
	}
	pre, err := core.NewPrefix(head, base.Valid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	texts := dataset.Texts(base.Test)
	for cycle, captured := range [][]string{texts[:24], texts[24:60], texts[60:64]} {
		d := growthView(base, pre.Examples(), captured)
		cfg.Seed = int64(19 + cycle)
		shared, err := core.NewProposer(d, cfg, core.ProposerOptions{Prefix: pre})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.NewProposer(d, cfg, core.ProposerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		core.MarkPoolUsed(fresh, len(head))
		gotLFs, gotFP := proposeAndBundle(t, shared, d, cfg, 6)
		wantLFs, wantFP := proposeAndBundle(t, fresh, d, cfg, 6)
		if len(gotLFs) == 0 {
			t.Fatalf("cycle %d accepted no LFs; the test needs a productive config", cycle)
		}
		if !slices.Equal(gotLFs, wantLFs) {
			t.Errorf("cycle %d: accepted %v over the prefix, %v without", cycle, gotLFs, wantLFs)
		}
		if gotFP != wantFP {
			t.Errorf("cycle %d: bundle %s over the prefix, %s without", cycle, gotFP, wantFP)
		}
	}

	// A split that does not start with the prefix, or a config of
	// another feature width, is refused.
	copied := make([]*dataset.Example, len(head))
	for i, e := range head {
		c := *e
		copied[i] = &c
	}
	other := growthView(base, copied, texts[:8])
	if _, err := core.NewProposer(other, cfg, core.ProposerOptions{Prefix: pre}); err == nil || !strings.Contains(err.Error(), "prefix") {
		t.Errorf("proposer over a split without the prefix's examples: err = %v", err)
	}
	wide := cfg
	wide.FeatureDim = 4096
	if _, err := core.NewProposer(growthView(base, pre.Examples(), texts[:8]), wide, core.ProposerOptions{Prefix: pre}); err == nil || !strings.Contains(err.Error(), "width") {
		t.Errorf("proposer of another feature width: err = %v", err)
	}
}
