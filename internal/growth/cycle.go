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
	"unicode/utf8"

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
//	promoted   the candidate cleared the quality gate, the offline
//	           verification and the registry's shadow gate, and the
//	           registry swapped it in, once
//	recorded   the candidate is renamed to candidate-<n>.json and the
//	           outcome row is in growth.jsonl; the workspace is then
//	           removed
//
// The journal row is the cycle's one commit point: only a promoted row
// moves the lineage head, in memory after the append and on restart
// from that row's archive. A kill before the row re-runs the gates on
// resume; they are offline or swap in the same pinned bytes, so a
// re-promotion is idempotent in effect.

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

	cycleDir := filepath.Join(d.cfg.StateDir, "cycle")
	man, corpus, err := d.loadOrStartCycle(cycleDir)
	if err != nil || man == nil {
		return nil, err
	}
	span.SetInt("cycle", int64(man.Cycle))
	span.SetInt("corpus", int64(man.CorpusLen))

	// A journal row for this cycle means only the workspace cleanup was
	// lost: finish it and return the recorded outcome.
	if n := len(d.records); n > 0 && d.records[n-1].Cycle == man.Cycle {
		last := d.records[n-1]
		if err := os.RemoveAll(cycleDir); err != nil {
			return nil, fmt.Errorf("growth: cleaning finished cycle: %w", err)
		}
		return &last, nil
	}

	prepSpan := span.Child("growth.prepare")
	gd, tail, prop, err := d.prepare(man, corpus, cycleDir)
	if err != nil {
		prepSpan.SetErr(err)
		prepSpan.End()
		return nil, err
	}
	prepSpan.End()

	steps, err := d.propose(ctx, span, man, prop, cycleDir)
	if err != nil {
		return nil, err
	}

	rec = &CycleRecord{
		Cycle:        man.Cycle,
		CorpusLen:    man.CorpusLen,
		Steps:        len(steps),
		NewLFs:       prop.NewCount(),
		ParentMetric: d.parent.Provenance.EndMetric,
		Parent:       d.parentHash,
		CreatedUnix:  man.CreatedUnix,
	}

	var cand *bundle.Bundle
	if rec.NewLFs == 0 {
		rec.Outcome = OutcomeNoNewLFs
	} else {
		evalSpan := span.Child("growth.evaluate")
		if cand, rec.CandidateHash, err = d.candidate(evalSpan, man, gd, prop, cycleDir); err != nil {
			evalSpan.SetErr(err)
			evalSpan.End()
			return nil, err
		}
		evalSpan.End()
		rec.CandidateMetric = cand.Provenance.EndMetric
		gateSpan := span.Child("growth.gate")
		if err := d.decideOutcome(rec, cand, dataset.FeatureCorpus(tail)); err != nil {
			gateSpan.SetErr(err)
			gateSpan.End()
			return nil, err
		}
		gateSpan.End()
	}

	if err := d.finalize(rec, cand, man, cycleDir); err != nil {
		return nil, err
	}
	d.mCycles.With(d.cfg.Tenant, rec.Outcome).Inc()
	d.mNewLFs.AddInt(rec.NewLFs)
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
// nil error means the corpus is still too small. A fresh cycle also
// returns the examples of the corpus it wrote, when they are what
// reading the file back gives (readCorpus); otherwise, and on resume,
// corpus is nil.
func (d *Daemon) loadOrStartCycle(cycleDir string) (man *manifest, corpus []*dataset.Example, err error) {
	manifestPath := filepath.Join(cycleDir, "manifest.json")
	if data, readErr := os.ReadFile(manifestPath); readErr == nil {
		man := new(manifest)
		if err := json.Unmarshal(data, man); err != nil {
			return nil, nil, fmt.Errorf("growth: corrupt cycle manifest: %w", err)
		}
		return man, nil, nil
	} else if !os.IsNotExist(readErr) {
		return nil, nil, fmt.Errorf("growth: %w", readErr)
	}
	// A workspace without a manifest is a cycle killed before its first
	// checkpoint: nothing durable was promised, start over.
	if err := os.RemoveAll(cycleDir); err != nil {
		return nil, nil, fmt.Errorf("growth: clearing stale workspace: %w", err)
	}

	if d.res.Len() < d.cfg.MinCorpus {
		return nil, nil, nil
	}
	texts := d.res.Snapshot()
	d.mFill.Set(0)

	cycle := 1
	if n := len(d.records); n > 0 {
		cycle = d.records[n-1].Cycle + 1
	}
	man = &manifest{
		Cycle:       cycle,
		Seed:        d.cfg.Pipeline.Seed + 9973*int64(cycle),
		CreatedUnix: d.cfg.now(),
		CorpusLen:   len(texts),
		Budget:      d.cfg.Budget,
	}

	if err := os.MkdirAll(cycleDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("growth: creating cycle workspace: %w", err)
	}
	if corpus, err = writeCorpus(filepath.Join(cycleDir, "corpus.jsonl"), texts); err != nil {
		return nil, nil, err
	}
	data, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return nil, nil, fmt.Errorf("growth: encoding manifest: %w", err)
	}
	if err := os.WriteFile(manifestPath, append(data, '\n'), 0o644); err != nil {
		return nil, nil, fmt.Errorf("growth: writing manifest: %w", err)
	}
	if err := d.checkpoint("snapshot"); err != nil {
		return nil, nil, err
	}
	return man, corpus, nil
}

// prepare assembles the cycle's dataset view over corpus, the examples
// of its snapshot — read back from the workspace when nil — and builds
// its proposer over the parent's LF set. tail is the view's captured
// examples, after the base prefix. The first cycle of a daemon builds
// the prefix; it depends only on Base and the pipeline's feature width,
// so it serves every later cycle, across promotions too, and it keeps
// the parent LFs' columns over Base between cycles. The caller owns the
// proposer (Close).
func (d *Daemon) prepare(man *manifest, corpus []*dataset.Example, cycleDir string) (gd *dataset.Dataset, tail []*dataset.Example, prop *core.Proposer, err error) {
	if corpus == nil {
		if corpus, err = readCorpus(filepath.Join(cycleDir, "corpus.jsonl")); err != nil {
			return nil, nil, nil, err
		}
	}
	if d.prefix == nil {
		if d.prefix, err = core.NewPrefix(unlabeled(d.cfg.Base.Train), d.cfg.Base.Valid, d.cfg.Pipeline); err != nil {
			return nil, nil, nil, err
		}
	}
	if gd, err = growthDataset(d.cfg.Base, d.prefix.Examples(), corpus); err != nil {
		return nil, nil, nil, err
	}
	pcfg, err := d.cycleConfig(man)
	if err != nil {
		return nil, nil, nil, err
	}
	cycle := man.Cycle
	opts := core.ProposerOptions{Frozen: d.parent.LFs, Prefix: d.prefix}
	if d.cfg.WrapModel != nil {
		opts.WrapModel = func(iter int, m llm.ChatModel) llm.ChatModel {
			return d.cfg.WrapModel(cycle, iter, m)
		}
	}
	if prop, err = core.NewProposer(gd, pcfg, opts); err != nil {
		return nil, nil, nil, err
	}
	return gd, gd.Train[len(d.prefix.Examples()):], prop, nil
}

// cycleConfig is the pipeline configuration of the manifest's cycle:
// the daemon's, with the cycle's derived seeds.
func (d *Daemon) cycleConfig(man *manifest) (core.Config, error) {
	pcfg := d.cfg.Pipeline
	pcfg.Seed = man.Seed
	pcfg.EndModel.Seed = man.Seed + 1
	err := pcfg.Normalize()
	return pcfg, err
}

// propose replays the journaled steps of this cycle, then runs live
// iterations up to the manifest budget, journaling each before moving
// on.
func (d *Daemon) propose(ctx context.Context, span obs.Span, man *manifest, prop *core.Proposer, cycleDir string) ([]core.ProposalStep, error) {
	stepsPath := filepath.Join(cycleDir, "steps.jsonl")
	steps, err := ckpt.Load[core.ProposalStep](stepsPath, nil)
	if err != nil {
		return nil, err
	}
	exhausted := false
	for i := range steps {
		if err := prop.Replay(&steps[i]); err != nil {
			return nil, err
		}
		exhausted = exhausted || steps[i].Exhausted
	}

	if len(steps) < man.Budget && !exhausted {
		w, err := ckpt.Open(stepsPath)
		if err != nil {
			return nil, err
		}
		for it := len(steps); it < man.Budget; it++ {
			stepSpan := span.Child("growth.step")
			st, err := prop.Step(ctx, it)
			if err != nil {
				stepSpan.SetErr(err)
				stepSpan.End()
				w.Close()
				return nil, err
			}
			stepSpan.End()
			if err := w.Append(st); err != nil {
				w.Close()
				return nil, err
			}
			steps = append(steps, *st)
			if err := d.checkpoint(fmt.Sprintf("step-%d", it)); err != nil {
				w.Close()
				return nil, err
			}
			if st.Exhausted {
				break
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	if err := d.checkpoint("proposed"); err != nil {
		return nil, err
	}
	return steps, nil
}

// candidate loads the cycle's pinned candidate bundle, or builds and
// pins it: evaluate the grown LF set, stamp the lineage (parent hash,
// cycle counter, the manifest's timestamp), and save. After this
// checkpoint the candidate's bytes never change. hash is the
// candidate's Fingerprint. The evaluation's spans nest under sp.
func (d *Daemon) candidate(sp obs.Span, man *manifest, gd *dataset.Dataset, prop *core.Proposer, cycleDir string) (cand *bundle.Bundle, hash string, err error) {
	candPath := filepath.Join(cycleDir, "candidate.json")
	if cand, err := bundle.Load(candPath); err == nil {
		hash, err := bundle.Fingerprint(cand)
		return cand, hash, err
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, "", fmt.Errorf("growth: loading pinned candidate: %w", err)
	}

	res, err := prop.Evaluate(sp)
	if err != nil {
		return nil, "", err
	}
	pcfg, err := d.cycleConfig(man)
	if err != nil {
		return nil, "", err
	}
	if cand, err = bundle.New(gd, pcfg, res); err != nil {
		return nil, "", err
	}
	cand.Provenance.Parent = d.parentHash
	cand.Provenance.GrowthCycle = d.parent.Provenance.GrowthCycle + 1
	cand.Provenance.CreatedUnix = man.CreatedUnix
	if d.cfg.mutateCandidate != nil {
		d.cfg.mutateCandidate(cand)
	}
	if hash, err = bundle.SaveFingerprint(candPath, cand); err != nil {
		return nil, "", err
	}
	if err := d.checkpoint("candidate"); err != nil {
		return nil, "", err
	}
	return cand, hash, nil
}

// decideOutcome runs the promotion state machine: quality gate →
// offline verification → the registry's shadow gate and its one swap.
// Only a candidate that clears all three is served; its journal row
// (finalize) then makes it the lineage head.
func (d *Daemon) decideOutcome(rec *CycleRecord, cand *bundle.Bundle, corpus [][]string) error {
	if rec.CandidateMetric < rec.ParentMetric-d.cfg.MaxRegression {
		rec.Outcome = OutcomeQualityRejected
		return nil
	}
	// The registry's gate only sees recent live traffic, which a fresh
	// or idle tenant lacks; verify against the cycle's own corpus before
	// the candidate is ever served.
	rec.VerifyAgreement = bundle.Agreement(d.parent, cand, corpus)
	if rec.VerifyAgreement < d.cfg.MinVerifyAgreement {
		rec.Outcome = OutcomeRolledBack
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
	rec.Outcome = OutcomePromoted
	return d.checkpoint("promoted")
}

// finalize archives the candidate, journals the outcome — the cycle's
// commit point — and removes the workspace. A promoted cand becomes the
// lineage head only once its row is durable.
func (d *Daemon) finalize(rec *CycleRecord, cand *bundle.Bundle, man *manifest, cycleDir string) error {
	// A rename moves the pinned bytes into place atomically. A kill
	// after it but before the row leaves the workspace without
	// candidate.json, so the resumed cycle rebuilds the identical
	// candidate from its journaled steps.
	archive := filepath.Join(d.cfg.StateDir, fmt.Sprintf("candidate-%d.json", man.Cycle))
	if err := os.Rename(filepath.Join(cycleDir, "candidate.json"), archive); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("growth: archiving candidate: %w", err)
	}
	if err := ckpt.Append(filepath.Join(d.cfg.StateDir, "growth.jsonl"), rec); err != nil {
		return err
	}
	d.mu.Lock()
	d.records = append(d.records, *rec)
	if rec.Outcome == OutcomePromoted {
		d.parent, d.parentHash = cand, rec.CandidateHash
	}
	d.mu.Unlock()
	if err := d.checkpoint("recorded"); err != nil {
		return err
	}
	if err := os.RemoveAll(cycleDir); err != nil {
		return fmt.Errorf("growth: cleaning workspace: %w", err)
	}
	return nil
}

// writeCorpus persists the captured texts as a JSONL split
// (dataset.WriteSplitJSONL), one unlabeled example per line. It returns the
// written examples when they equal what readCorpus decodes from the
// file, and nil otherwise: JSON encodes each invalid UTF-8 byte as
// U+FFFD, so a text that is not valid UTF-8 reads back changed.
func writeCorpus(path string, texts []string) ([]*dataset.Example, error) {
	split := make([]*dataset.Example, len(texts))
	valid := true
	for i, t := range texts {
		split[i] = &dataset.Example{ID: i, Text: t, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
		valid = valid && utf8.ValidString(t)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("growth: creating corpus: %w", err)
	}
	if err := dataset.WriteSplitJSONL(f, split); err != nil {
		f.Close()
		return nil, fmt.Errorf("growth: writing corpus: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("growth: syncing corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("growth: closing corpus: %w", err)
	}
	if !valid {
		return nil, nil
	}
	return split, nil
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

// unlabeled returns label-stripped copies of split: growth treats every
// example as part of the unlabeled pool the paper samples from.
func unlabeled(split []*dataset.Example) []*dataset.Example {
	out := make([]*dataset.Example, len(split))
	for i, e := range split {
		c := *e
		c.Label = dataset.NoLabel
		out[i] = &c
	}
	return out
}

// growthDataset assembles the cycle's training view: head, the
// label-stripped base train split shared by every cycle, followed by
// label-stripped copies of the captured corpus, with the base's labeled
// valid/test splits intact for filtering and the quality gate. The view
// shares head's examples, which are read-only once tokenized.
func growthDataset(base *dataset.Dataset, head, captured []*dataset.Example) (*dataset.Dataset, error) {
	train := make([]*dataset.Example, len(head), len(head)+len(captured))
	copy(train, head)
	maxID := -1
	for _, e := range head {
		maxID = max(maxID, e.ID)
	}
	for i, e := range unlabeled(captured) {
		e.ID = maxID + 1 + i
		e.EnsureTokens()
		train = append(train, e)
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
