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
//	snapshot   cycle/snapshot.jsonl written — the cycle's pinned
//	           manifest (seed, timestamp, budget) and the captured
//	           sample exist on disk
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
// kill: its number, derived seed, timestamp, captured texts, and budget
// (so a config change cannot reshape a cycle already in flight). The
// cycle's snapshot.jsonl holds it: the header on the first line, then
// one text a line as a JSON string.
type manifest struct {
	Cycle       int      `json:"cycle"`
	Seed        int64    `json:"seed"`
	CreatedUnix int64    `json:"created_unix"`
	CorpusLen   int      `json:"corpus_len"`
	Budget      int      `json:"budget"`
	Texts       []string `json:"-"`
}

// errBadSnapshot marks a snapshot that does not parse or does not fit
// the journal: derived state, so the workspace is discarded.
var errBadSnapshot = errors.New("growth: bad cycle snapshot")

// write streams the snapshot, one Encode a line.
func (m *manifest) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(m); err != nil {
		return err
	}
	for _, t := range m.Texts {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return nil
}

// readSnapshot reads a snapshot back. A missing file is an
// os.ErrNotExist error; one that does not parse, holds a text that is
// not a string, or whose header miscounts its texts or lacks a budget
// or a timestamp is errBadSnapshot. (A candidate saved without a
// timestamp is stamped at save time, so its bytes would no longer be
// those of the bundle the cycle promotes.)
func readSnapshot(path string) (*manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	man := new(manifest)
	err = dec.Decode(man)
	for err == nil {
		var t *string
		switch err = dec.Decode(&t); {
		case err == nil && t == nil:
			err = errors.New("text is null")
		case err == nil:
			man.Texts = append(man.Texts, *t)
		}
	}
	if err != io.EOF {
		return nil, fmt.Errorf("%w: %v", errBadSnapshot, err)
	}
	if man.CorpusLen != len(man.Texts) || man.CorpusLen == 0 || man.Budget < 1 || man.CreatedUnix < 1 {
		return nil, fmt.Errorf("%w: corpus_len %d over %d texts, budget %d, created_unix %d",
			errBadSnapshot, man.CorpusLen, len(man.Texts), man.Budget, man.CreatedUnix)
	}
	return man, nil
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

	man, err := d.loadOrStartCycle(ctx)
	if err != nil || man == nil {
		return nil, err
	}
	span.SetInt("cycle", int64(man.Cycle))
	span.SetInt("corpus", int64(man.CorpusLen))

	// A journal row for this cycle means only the workspace cleanup was
	// lost: finish it and return the recorded outcome.
	if n := len(d.records); n > 0 && d.records[n-1].Cycle == man.Cycle {
		last := d.records[n-1]
		if err := os.RemoveAll(d.cycleDir); err != nil {
			return nil, fmt.Errorf("growth: cleaning finished cycle: %w", err)
		}
		return &last, nil
	}

	prepSpan := span.Child("growth.prepare")
	gd, tail, prop, err := d.prepare(man)
	if err != nil {
		prepSpan.SetErr(err)
		prepSpan.End()
		return nil, err
	}
	prepSpan.End()

	steps, err := d.propose(ctx, span, man, prop)
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
		if cand, rec.CandidateHash, err = d.candidate(evalSpan, man, gd, prop); err != nil {
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

	if err := d.finalize(rec, cand, man); err != nil {
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

// loadOrStartCycle resumes the snapshot of an interrupted cycle, or
// snapshots the reservoir into a fresh workspace. A nil manifest with
// nil error means the corpus is still too small.
func (d *Daemon) loadOrStartCycle(ctx context.Context) (*manifest, error) {
	next := 1
	if n := len(d.records); n > 0 {
		next = d.records[n-1].Cycle + 1
	}
	path := filepath.Join(d.cycleDir, "snapshot.jsonl")
	man, err := readSnapshot(path)
	// A snapshot is of the journal's next cycle, or of its last one when
	// only that cycle's workspace cleanup was lost.
	if err == nil && man.Cycle != next && (man.Cycle != next-1 || next == 1) {
		err = fmt.Errorf("%w: cycle %d, the journal's next is %d", errBadSnapshot, man.Cycle, next)
	}
	switch {
	case err == nil:
		return man, nil
	case errors.Is(err, errBadSnapshot):
		d.o.Logger.LogAttrs(ctx, slog.LevelWarn, "growth: discarding cycle workspace",
			slog.String("tenant", d.cfg.Tenant), slog.String("error", err.Error()))
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("growth: %w", err)
	}
	// A workspace without a valid snapshot — a cycle killed before its
	// first checkpoint, a corrupt one, or an older layout — holds only
	// derived state: start over.
	if err := os.RemoveAll(d.cycleDir); err != nil {
		return nil, fmt.Errorf("growth: clearing stale workspace: %w", err)
	}

	if d.res.Len() < d.cfg.MinCorpus {
		return nil, nil
	}
	texts := d.res.Snapshot()
	d.mFill.Set(0)
	for i, t := range texts {
		// encoding/json writes each invalid UTF-8 byte as U+FFFD, as
		// the []rune conversion does: a fresh cycle sees the texts a
		// resumed one reads back.
		if !utf8.ValidString(t) {
			texts[i] = string([]rune(t))
		}
	}
	man = &manifest{
		Cycle:       next,
		Seed:        d.cfg.Pipeline.Seed + 9973*int64(next),
		CreatedUnix: d.cfg.now(),
		CorpusLen:   len(texts),
		Budget:      d.cfg.Budget,
		Texts:       texts,
	}
	if err := os.MkdirAll(d.cycleDir, 0o755); err != nil {
		return nil, fmt.Errorf("growth: creating cycle workspace: %w", err)
	}
	if err := ckpt.Replace(path, man.write); err != nil {
		return nil, fmt.Errorf("growth: writing snapshot: %w", err)
	}
	if err := d.checkpoint("snapshot"); err != nil {
		return nil, err
	}
	return man, nil
}

// prepare assembles the cycle's dataset view over the manifest's texts
// and builds its proposer over the parent's LF set. tail is the view's
// captured examples, after the base prefix. The first cycle of a daemon
// builds the prefix; it depends only on Base and the pipeline's feature
// width, so it serves every later cycle, across promotions too, and it
// keeps the parent LFs' columns over Base between cycles.
func (d *Daemon) prepare(man *manifest) (gd *dataset.Dataset, tail []*dataset.Example, prop *core.Proposer, err error) {
	if d.prefix == nil {
		if d.prefix, err = core.NewPrefix(unlabeled(d.cfg.Base.Train), d.cfg.Base.Valid, d.cfg.Pipeline); err != nil {
			return nil, nil, nil, err
		}
	}
	if gd, err = growthDataset(d.cfg.Base, d.prefix.Examples(), man.Texts); err != nil {
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
func (d *Daemon) propose(ctx context.Context, span obs.Span, man *manifest, prop *core.Proposer) ([]core.ProposalStep, error) {
	stepsPath := filepath.Join(d.cycleDir, "steps.jsonl")
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
func (d *Daemon) candidate(sp obs.Span, man *manifest, gd *dataset.Dataset, prop *core.Proposer) (cand *bundle.Bundle, hash string, err error) {
	candPath := filepath.Join(d.cycleDir, "candidate.json")
	if cand, err := bundle.Load(candPath); err == nil {
		hash, err := bundle.Fingerprint(cand)
		return cand, hash, err
	}
	// A pinned candidate that does not load is derived state: rebuilding
	// it from the journaled steps gives the same bytes, saved over it.

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
func (d *Daemon) finalize(rec *CycleRecord, cand *bundle.Bundle, man *manifest) error {
	// A rename moves the pinned bytes into place atomically. A kill
	// after it but before the row leaves the workspace without
	// candidate.json, so the resumed cycle rebuilds the identical
	// candidate from its journaled steps.
	archive := filepath.Join(d.cfg.StateDir, fmt.Sprintf("candidate-%d.json", man.Cycle))
	if err := os.Rename(filepath.Join(d.cycleDir, "candidate.json"), archive); err != nil && !os.IsNotExist(err) {
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
	if err := os.RemoveAll(d.cycleDir); err != nil {
		return fmt.Errorf("growth: cleaning workspace: %w", err)
	}
	return nil
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
// label-stripped base train split shared by every cycle, followed by an
// unlabeled example for each captured text, with the base's labeled
// valid/test splits intact for filtering and the quality gate. The view
// shares head's examples, which are read-only once tokenized.
func growthDataset(base *dataset.Dataset, head []*dataset.Example, texts []string) (*dataset.Dataset, error) {
	train := make([]*dataset.Example, len(head), len(head)+len(texts))
	copy(train, head)
	maxID := -1
	for _, e := range head {
		maxID = max(maxID, e.ID)
	}
	for i, t := range texts {
		e := &dataset.Example{ID: maxID + 1 + i, Text: t, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
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
