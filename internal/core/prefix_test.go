package core_test

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/obs"
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
	names, fp, err := bundleOf(p, d, cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	return names, fp
}

// bundleOf is proposeAndBundle for goroutines: it returns its error.
func bundleOf(p *core.Proposer, d *dataset.Dataset, cfg core.Config, budget int) ([]string, string, error) {
	for it := 0; it < budget; it++ {
		st, err := p.Step(context.Background(), it)
		if err != nil {
			return nil, "", err
		}
		if st.Exhausted {
			break
		}
	}
	names := lfNames(p.Accepted())
	res, err := p.Evaluate(obs.NopTracer().StartSpan(""))
	if err != nil {
		return nil, "", err
	}
	b, err := bundle.New(d, cfg, res)
	if err != nil {
		return nil, "", err
	}
	b.Provenance.CreatedUnix = 1
	fp, err := bundle.Fingerprint(b)
	return names, fp, err
}

// lfNames returns the LFs' names in order.
func lfNames(lfs []lf.LabelFunction) []string {
	names := make([]string, len(lfs))
	for i, f := range lfs {
		names[i] = f.Name()
	}
	return names
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

// TestProposerPrefixFrozenColumns: over a lineage whose frozen parent
// set grows, shrinks and changes, a proposer over one shared Prefix
// seeds the filter chain and the vote matrix from the prefix's cached
// columns and still accepts the LF set and assembles the bundle of a
// proposer built without a prefix. After each NewProposer the cache
// holds exactly the frozen set's names: no rejected or newly accepted
// candidate, and no LF of an earlier frozen set.
func TestProposerPrefixFrozenColumns(t *testing.T) {
	base, err := dataset.Load("youtube", 23, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Seed = 23
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

	var frozen []lf.LabelFunction
	for cycle, captured := range [][]string{texts[:24], texts[24:60], texts[60:64], texts[40:75]} {
		d := growthView(base, pre.Examples(), captured)
		cfg.Seed = int64(23 + cycle)
		if cycle == 3 {
			// Another lineage: drop every other frozen LF.
			var kept []lf.LabelFunction
			for i, f := range frozen {
				if i%2 == 0 {
					kept = append(kept, f)
				}
			}
			frozen = kept
		}
		opts := core.ProposerOptions{Frozen: frozen}
		fresh, err := core.NewProposer(d, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		core.MarkPoolUsed(fresh, len(head))
		opts.Prefix = pre
		shared, err := core.NewProposer(d, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := lfNames(frozen)
		slices.Sort(want)
		if got := core.CachedColumns(pre); !slices.Equal(got, want) {
			t.Fatalf("cycle %d: cache holds %v, frozen set is %v", cycle, got, want)
		}
		if got := core.SeededColumns(shared); got != len(frozen) {
			t.Fatalf("cycle %d: the vote matrix starts with %d columns, want the %d frozen ones", cycle, got, len(frozen))
		}
		gotLFs, gotFP := proposeAndBundle(t, shared, d, cfg, 8)
		wantLFs, wantFP := proposeAndBundle(t, fresh, d, cfg, 8)
		if !slices.Equal(gotLFs, wantLFs) {
			t.Errorf("cycle %d: accepted %v over the prefix, %v without", cycle, gotLFs, wantLFs)
		}
		if gotFP != wantFP {
			t.Errorf("cycle %d: bundle %s over the prefix, %s without", cycle, gotFP, wantFP)
		}
		if got := core.CachedColumns(pre); !slices.Equal(got, want) {
			t.Fatalf("cycle %d: after proposing, cache holds %v, frozen set is %v", cycle, got, want)
		}
		if len(gotLFs) == len(frozen) && cycle < 2 {
			t.Fatalf("cycle %d accepted no new LFs; the test needs a productive config", cycle)
		}
		frozen = shared.Accepted()
	}
}

// TestPrefixSharedConcurrently: proposers over different frozen sets,
// built and evaluated at once over one Prefix, each assemble the bundle
// of a proposer built without a prefix. Run under -race.
func TestPrefixSharedConcurrently(t *testing.T) {
	base, err := dataset.Load("youtube", 29, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Seed = 29
	cfg.FeatureDim = 1024
	cfg.EndModel.Epochs = 2
	cfg.Parallelism = 1
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
	parent, err := core.NewProposer(growthView(base, pre.Examples(), texts[:16]), cfg, core.ProposerOptions{Prefix: pre})
	if err != nil {
		t.Fatal(err)
	}
	proposeAndBundle(t, parent, growthView(base, pre.Examples(), texts[:16]), cfg, 8)
	all := parent.Accepted()
	if len(all) < 2 {
		t.Fatalf("parent accepted %d LFs; the test needs a productive config", len(all))
	}
	frozenSets := [][]lf.LabelFunction{all, all[:len(all)/2], all[len(all)/2:], nil}

	want := make([]string, len(frozenSets))
	views := make([]*dataset.Dataset, len(frozenSets))
	for i, frozen := range frozenSets {
		views[i] = growthView(base, pre.Examples(), texts[16+6*i:28+6*i])
		fresh, err := core.NewProposer(views[i], cfg, core.ProposerOptions{Frozen: frozen})
		if err != nil {
			t.Fatal(err)
		}
		core.MarkPoolUsed(fresh, len(head))
		_, want[i] = proposeAndBundle(t, fresh, views[i], cfg, 4)
	}
	got := make([]string, len(frozenSets))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, frozen := range frozenSets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := core.NewProposer(views[i], cfg, core.ProposerOptions{Frozen: frozen, Prefix: pre})
				if err != nil {
					t.Error(err)
					return
				}
				var err2 error
				if _, got[i], err2 = bundleOf(p, views[i], cfg, 4); err2 != nil {
					t.Error(err2)
				}
			}()
		}
		wg.Wait()
		if !slices.Equal(got, want) {
			t.Errorf("round %d: bundles over the shared prefix %v, without %v", round, got, want)
		}
	}
}
