package growth

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/ckpt"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
)

// One growth cycle walks a durable state machine; every transition is
// journaled before the next begins, so a kill at any point resumes to
// the identical candidate:
//
//	snapshot   cycle/corpus.jsonl + cycle/manifest.json written —
//	           the captured sample and the cycle's pinned (seed,
//	           timestamp, budget) exist on disk
//	step-i     cycle/steps.jsonl extended with iteration i's
//	           ProposalStep (resume replays these without LLM calls)
//	proposed   the proposer loop is complete
//	candidate  cycle/candidate.json written — the assembled bundle's
//	           bytes are final
//	recorded   the outcome row is in growth.jsonl and the candidate is
//	           archived as candidate-<n>.json; the workspace is then
//	           removed
//
// The gate→promote→verify block runs between candidate and recorded
// with no checkpoint of its own: a kill inside it re-runs the block on
// resume (promotion is at-least-once), but the candidate bytes it
// promotes are already pinned, so re-promoting is idempotent in effect.

// manifest pins everything about a cycle that must not drift across a
// kill: its number, derived seed, timestamp, corpus size, and budget
// (so a config change cannot reshape a cycle already in flight).
type manifest struct {
	Cycle       int   `json:"cycle"`
	Seed        int64 `json:"seed"`
	CreatedUnix int64 `json:"created_unix"`
	CorpusLen   int   `json:"corpus_len"`
	Budget      int   `json:"budget"`
}

func (d *Daemon) checkpoint(stage string) error {
	if d.cfg.afterCheckpoint != nil {
		if err := d.cfg.afterCheckpoint(stage); err != nil {
			return fmt.Errorf("growth: interrupted after %s: %w", stage, err)
		}
	}
	return nil
}

// RunCycle runs one growth cycle to completion: resume any interrupted
// cycle found in the state dir, otherwise snapshot the reservoir and
// start a fresh one. It returns the cycle's journal record, or
// (nil, nil) when the captured corpus is still below MinCorpus. Safe
// to call concurrently with Capture and Status; concurrent RunCycle
// calls serialize.
func (d *Daemon) RunCycle(ctx context.Context) (rec *CycleRecord, err error) {
	d.cycleMu.Lock()
	defer d.cycleMu.Unlock()
	d.mu.Lock()
	d.running = true
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.running = false
		d.mu.Unlock()
	}()

	span := d.o.StartSpan(ctx, "growth.cycle")
	defer func() {
		if err != nil {
			span.SetErr(err)
		}
		span.End()
	}()
	start := time.Now()

	cycleDir := filepath.Join(d.cfg.StateDir, "cycle")
	man, err := d.loadOrStartCycle(cycleDir)
	if err != nil || man == nil {
		return nil, err
	}
	span.SetInt("cycle", int64(man.Cycle))
	span.SetInt("corpus", int64(man.CorpusLen))

	// A journal row for this cycle means only the workspace cleanup was
	// lost: finish it and return the recorded outcome.
	d.mu.Lock()
	already := len(d.records) > 0 && d.records[len(d.records)-1].Cycle == man.Cycle
	d.mu.Unlock()
	if already {
		if err := os.RemoveAll(cycleDir); err != nil {
			return nil, fmt.Errorf("growth: cleaning finished cycle: %w", err)
		}
		d.mu.Lock()
		last := d.records[len(d.records)-1]
		d.mu.Unlock()
		return &last, nil
	}

	corpus, err := readCorpus(filepath.Join(cycleDir, "corpus.jsonl"))
	if err != nil {
		return nil, err
	}
	gd, err := growthDataset(d.cfg.Base, corpus)
	if err != nil {
		return nil, err
	}

	prop, steps, err := d.propose(ctx, span, man, gd, cycleDir)
	if err != nil {
		return nil, err
	}
	defer prop.Close()

	rec = &CycleRecord{
		Cycle:        man.Cycle,
		CorpusLen:    man.CorpusLen,
		Steps:        len(steps),
		NewLFs:       prop.NewCount(),
		ParentMetric: d.parent.Provenance.EndMetric,
		Parent:       d.parentHash,
		CreatedUnix:  man.CreatedUnix,
	}

	if rec.NewLFs == 0 {
		rec.Outcome = OutcomeNoNewLFs
	} else {
		cand, err := d.candidate(man, gd, prop, cycleDir)
		if err != nil {
			return nil, err
		}
		if rec.CandidateHash, err = bundle.Fingerprint(cand); err != nil {
			return nil, err
		}
		rec.CandidateMetric = cand.Provenance.EndMetric
		texts := make([]string, len(corpus))
		for i, e := range corpus {
			texts[i] = e.Text
		}
		if err := d.decideOutcome(rec, cand, texts, cycleDir); err != nil {
			return nil, err
		}
	}

	if err := d.finalize(rec, man, cycleDir); err != nil {
		return nil, err
	}
	d.mCycles.With(d.cfg.Tenant, rec.Outcome).Inc()
	d.mNewLFs.AddInt(rec.NewLFs)
	d.mCycleSec.Observe(time.Since(start).Seconds())
	span.SetStr("outcome", rec.Outcome)
	span.SetInt("new_lfs", int64(rec.NewLFs))
	d.o.Logger.LogAttrs(ctx, slog.LevelInfo, "growth cycle complete",
		slog.String("tenant", d.cfg.Tenant), slog.Int("cycle", rec.Cycle),
		slog.String("outcome", rec.Outcome), slog.Int("corpus", rec.CorpusLen),
		slog.Int("new_lfs", rec.NewLFs), slog.Int("generation", rec.Generation))
	return rec, nil
}

// loadOrStartCycle resumes the manifest of an interrupted cycle, or
// snapshots the reservoir into a fresh workspace. A nil manifest with
// nil error means the corpus is still too small.
func (d *Daemon) loadOrStartCycle(cycleDir string) (*manifest, error) {
	manifestPath := filepath.Join(cycleDir, "manifest.json")
	if data, readErr := os.ReadFile(manifestPath); readErr == nil {
		man := new(manifest)
		if err := json.Unmarshal(data, man); err != nil {
			return nil, fmt.Errorf("growth: corrupt cycle manifest: %w", err)
		}
		return man, nil
	} else if !os.IsNotExist(readErr) {
		return nil, fmt.Errorf("growth: %w", readErr)
	}
	// A workspace without a manifest is a cycle killed before its first
	// checkpoint: nothing durable was promised, start over.
	if err := os.RemoveAll(cycleDir); err != nil {
		return nil, fmt.Errorf("growth: clearing stale workspace: %w", err)
	}

	if d.res.Len() < d.cfg.MinCorpus {
		return nil, nil
	}
	texts := d.res.Snapshot()
	d.mFill.Set(0)

	d.mu.Lock()
	cycle := 1
	if n := len(d.records); n > 0 {
		cycle = d.records[n-1].Cycle + 1
	}
	d.mu.Unlock()
	man := &manifest{
		Cycle:       cycle,
		Seed:        d.cfg.Pipeline.Seed + 9973*int64(cycle),
		CreatedUnix: d.cfg.now(),
		CorpusLen:   len(texts),
		Budget:      d.cfg.Budget,
	}

	if err := os.MkdirAll(cycleDir, 0o755); err != nil {
		return nil, fmt.Errorf("growth: creating cycle workspace: %w", err)
	}
	if err := writeCorpus(filepath.Join(cycleDir, "corpus.jsonl"), texts); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return nil, fmt.Errorf("growth: encoding manifest: %w", err)
	}
	if err := os.WriteFile(manifestPath, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("growth: writing manifest: %w", err)
	}
	if err := d.checkpoint("snapshot"); err != nil {
		return nil, err
	}
	return man, nil
}

// propose replays the journaled steps of this cycle, then runs live
// iterations up to the manifest budget, journaling each before moving
// on.
func (d *Daemon) propose(ctx context.Context, span obs.Span, man *manifest, gd *dataset.Dataset, cycleDir string) (*core.Proposer, []core.ProposalStep, error) {
	pcfg := d.cfg.Pipeline
	pcfg.Seed = man.Seed
	pcfg.EndModel.Seed = man.Seed + 1
	if err := pcfg.Normalize(); err != nil {
		return nil, nil, err
	}

	cycle := man.Cycle
	opts := core.ProposerOptions{
		Frozen:         d.parent.LFs,
		QueryPoolStart: len(d.cfg.Base.Train),
	}
	if d.cfg.WrapModel != nil {
		opts.WrapModel = func(iter int, m llm.ChatModel) llm.ChatModel {
			return d.cfg.WrapModel(cycle, iter, m)
		}
	}
	prop, err := core.NewProposer(gd, pcfg, opts)
	if err != nil {
		return nil, nil, err
	}

	stepsPath := filepath.Join(cycleDir, "steps.jsonl")
	steps, err := ckpt.Load[core.ProposalStep](stepsPath, nil)
	if err != nil {
		prop.Close()
		return nil, nil, err
	}
	exhausted := false
	for i := range steps {
		if err := prop.Replay(&steps[i]); err != nil {
			prop.Close()
			return nil, nil, err
		}
		exhausted = exhausted || steps[i].Exhausted
	}

	if len(steps) < man.Budget && !exhausted {
		w, err := ckpt.Open(stepsPath)
		if err != nil {
			prop.Close()
			return nil, nil, err
		}
		for it := len(steps); it < man.Budget; it++ {
			stepSpan := span.Child("growth.step")
			st, err := prop.Step(ctx, it)
			if err != nil {
				stepSpan.SetErr(err)
				stepSpan.End()
				w.Close()
				prop.Close()
				return nil, nil, err
			}
			stepSpan.End()
			if err := w.Append(st); err != nil {
				w.Close()
				prop.Close()
				return nil, nil, err
			}
			steps = append(steps, *st)
			if err := d.checkpoint(fmt.Sprintf("step-%d", it)); err != nil {
				w.Close()
				prop.Close()
				return nil, nil, err
			}
			if st.Exhausted {
				break
			}
		}
		if err := w.Close(); err != nil {
			prop.Close()
			return nil, nil, err
		}
	}
	if err := d.checkpoint("proposed"); err != nil {
		prop.Close()
		return nil, nil, err
	}
	return prop, steps, nil
}

// candidate loads the cycle's pinned candidate bundle, or builds and
// pins it: evaluate the grown LF set, stamp the lineage (parent hash,
// cycle counter, the manifest's timestamp), and save. After this
// checkpoint the candidate's bytes never change.
func (d *Daemon) candidate(man *manifest, gd *dataset.Dataset, prop *core.Proposer, cycleDir string) (*bundle.Bundle, error) {
	candPath := filepath.Join(cycleDir, "candidate.json")
	if _, statErr := os.Stat(candPath); statErr == nil {
		cand, err := bundle.Load(candPath)
		if err != nil {
			return nil, fmt.Errorf("growth: loading pinned candidate: %w", err)
		}
		return cand, nil
	} else if !os.IsNotExist(statErr) {
		return nil, fmt.Errorf("growth: %w", statErr)
	}

	res, err := prop.Evaluate()
	if err != nil {
		return nil, err
	}
	pcfg := d.cfg.Pipeline
	pcfg.Seed = man.Seed
	pcfg.EndModel.Seed = man.Seed + 1
	if err := pcfg.Normalize(); err != nil {
		return nil, err
	}
	cand, err := bundle.New(gd, pcfg, res)
	if err != nil {
		return nil, err
	}
	cand.Provenance.Parent = d.parentHash
	cand.Provenance.GrowthCycle = d.parent.Provenance.GrowthCycle + 1
	cand.Provenance.CreatedUnix = man.CreatedUnix
	if d.cfg.mutateCandidate != nil {
		d.cfg.mutateCandidate(cand)
	}
	if err := bundle.Save(candPath, cand); err != nil {
		return nil, err
	}
	if err := d.checkpoint("candidate"); err != nil {
		return nil, err
	}
	return cand, nil
}

// decideOutcome runs the promotion state machine: quality gate →
// registry shadow gate → post-promote verification with automatic
// rollback. Only a candidate that clears all three becomes the new
// lineage head.
func (d *Daemon) decideOutcome(rec *CycleRecord, cand *bundle.Bundle, corpusTexts []string, cycleDir string) error {
	if rec.CandidateMetric < rec.ParentMetric-d.cfg.MaxRegression {
		rec.Outcome = OutcomeQualityRejected
		return nil
	}
	rep, err := d.cfg.Registry.Promote(d.cfg.Tenant, cand, false)
	if errors.Is(err, registry.ErrShadowGate) {
		rec.Outcome = OutcomeShadowRejected
		rec.ShadowAgreement = rep.Agreement
		return nil
	}
	if err != nil {
		return fmt.Errorf("growth: promoting cycle %d candidate: %w", rec.Cycle, err)
	}
	rec.Generation = rep.Generation
	if rep.Gated {
		rec.ShadowAgreement = rep.Agreement
	}

	// The registry's gate only sees recent live traffic, which a fresh
	// or idle tenant lacks; verify against the cycle's own corpus and
	// undo the swap on disagreement.
	rec.VerifyAgreement = bundle.Agreement(d.parent, cand, corpusTexts)
	if rec.VerifyAgreement < d.cfg.MinVerifyAgreement {
		if _, err := d.cfg.Registry.Rollback(d.cfg.Tenant); err != nil {
			return fmt.Errorf("growth: rolling back cycle %d: %w", rec.Cycle, err)
		}
		rec.Outcome = OutcomeRolledBack
		return nil
	}

	rec.Outcome = OutcomePromoted
	// The candidate's pinned bytes become the new lineage head.
	data, err := os.ReadFile(filepath.Join(cycleDir, "candidate.json"))
	if err != nil {
		return fmt.Errorf("growth: %w", err)
	}
	if err := os.WriteFile(filepath.Join(d.cfg.StateDir, "parent.json"), data, 0o644); err != nil {
		return fmt.Errorf("growth: updating lineage head: %w", err)
	}
	d.mu.Lock()
	d.parent = cand
	d.parentHash = rec.CandidateHash
	d.mu.Unlock()
	return nil
}

// finalize archives the candidate, journals the outcome, and removes
// the workspace.
func (d *Daemon) finalize(rec *CycleRecord, man *manifest, cycleDir string) error {
	candPath := filepath.Join(cycleDir, "candidate.json")
	if data, err := os.ReadFile(candPath); err == nil {
		archive := filepath.Join(d.cfg.StateDir, fmt.Sprintf("candidate-%d.json", man.Cycle))
		if err := os.WriteFile(archive, data, 0o644); err != nil {
			return fmt.Errorf("growth: archiving candidate: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("growth: %w", err)
	}
	if err := ckpt.Append(filepath.Join(d.cfg.StateDir, "growth.jsonl"), rec); err != nil {
		return err
	}
	d.mu.Lock()
	d.records = append(d.records, *rec)
	d.mu.Unlock()
	if err := d.checkpoint("recorded"); err != nil {
		return err
	}
	if err := os.RemoveAll(cycleDir); err != nil {
		return fmt.Errorf("growth: cleaning workspace: %w", err)
	}
	return nil
}

// writeCorpus persists the captured texts as a JSONL split (the PR-9
// streaming format), one unlabeled example per line.
func writeCorpus(path string, texts []string) error {
	split := make([]*dataset.Example, len(texts))
	for i, t := range texts {
		split[i] = &dataset.Example{ID: i, Text: t, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("growth: creating corpus: %w", err)
	}
	if err := dataset.WriteSplitJSONL(f, split); err != nil {
		f.Close()
		return fmt.Errorf("growth: writing corpus: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("growth: syncing corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("growth: closing corpus: %w", err)
	}
	return nil
}

// readCorpus streams the cycle's corpus snapshot back into examples.
func readCorpus(path string) ([]*dataset.Example, error) {
	r, err := dataset.OpenJSONL(path, dataset.TextClassification)
	if err != nil {
		return nil, fmt.Errorf("growth: %w", err)
	}
	defer r.Close()
	var out []*dataset.Example
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("growth: reading corpus: %w", err)
		}
		out = append(out, e)
	}
}

// growthDataset assembles the cycle's training view: the base train
// split (labels stripped — growth treats everything as the unlabeled
// pool the paper samples from) followed by the captured corpus, with
// the labeled valid/test splits intact for filtering and the quality
// gate.
func growthDataset(base *dataset.Dataset, captured []*dataset.Example) (*dataset.Dataset, error) {
	train := make([]*dataset.Example, 0, len(base.Train)+len(captured))
	maxID := -1
	for _, e := range base.Train {
		c := *e
		c.Label = dataset.NoLabel
		train = append(train, &c)
		if c.ID > maxID {
			maxID = c.ID
		}
	}
	for i, e := range captured {
		c := *e
		c.ID = maxID + 1 + i
		c.Label = dataset.NoLabel
		c.EnsureTokens()
		train = append(train, &c)
	}
	gd := &dataset.Dataset{
		Name:            base.Name,
		Task:            base.Task,
		ClassNames:      base.ClassNames,
		DefaultClass:    base.DefaultClass,
		Imbalanced:      base.Imbalanced,
		TrainLabeled:    false,
		Train:           train,
		Valid:           base.Valid,
		Test:            base.Test,
		Signal:          base.Signal,
		TaskDescription: base.TaskDescription,
		InstanceNoun:    base.InstanceNoun,
	}
	if err := gd.Validate(); err != nil {
		return nil, fmt.Errorf("growth: assembling cycle dataset: %w", err)
	}
	return gd, nil
}
