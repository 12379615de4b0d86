package core

import (
	"context"
	"math/rand"

	"datasculpt/internal/dataset"
	"datasculpt/internal/lf"
	"datasculpt/internal/llm"
	"datasculpt/internal/textproc"
)

// The paper's discussion section names LF revision as future work: "our
// work does not revise the LFs developed by LLMs. Future works could
// consider an iterative prompting strategy to enhance LF quality further."
// This file implements that extension as counterexample re-prompting:
// when the accuracy filter rejects a candidate λ(k,c), the pipeline finds
// a validation instance the candidate mislabels (contains k but carries a
// different gold label) and issues one additional normal prompt on that
// instance. The LLM, now grounded in the counterexample, proposes
// keywords for the *correct* class — often a more specific phrase that
// disambiguates the one that failed. Enable with Config.ReviseRejected.

// counterexample finds a validation instance where the rejected candidate
// misfires: the keyword is present but the gold label differs from the
// candidate's class.
func (l *loop) counterexample(rej lf.Rejected) *dataset.Example {
	phrase, n := textproc.NormalizePhrase(rej.Keyword)
	if n == 0 {
		return nil
	}
	validIx := l.state.ValidIndex
	split := validIx.Split()
	for _, id := range validIx.Docs(phrase) {
		e := split[id]
		if e.Label != dataset.NoLabel && e.Label != rej.Class {
			return e
		}
	}
	return nil
}

// revise runs up to cfg.MaxRevisions counterexample prompts over the
// chain's accuracy-filter rejections and offers the resulting keywords
// back. A failed revision prompt counts against MaxRevisions and is
// handed to charge, the run's failure budget; a non-nil charge error
// aborts the pass. It returns the number of revision prompts issued and
// of LFs the revisions added.
func (l *loop) revise(ctx context.Context, model llm.ChatModel, meter *llm.Meter, rng *rand.Rand, charge func(error) error) (prompts, added int, err error) {
	rejected := l.chain.Rejected()
	// shuffle so revision effort spreads over the rejection list rather
	// than clustering on the earliest iterations
	order := rng.Perm(len(rejected))
	for _, idx := range order {
		if prompts >= l.cfg.MaxRevisions {
			break
		}
		rej := rejected[idx]
		if rej.Reason != lf.RejectInaccurate {
			continue
		}
		counter := l.counterexample(rej)
		if counter == nil {
			continue
		}
		prompts++
		a := l.ask(ctx, noSpan, noSpan, model, meter, counter)
		if a.err != nil {
			if err := charge(a.err); err != nil {
				return prompts, added, err
			}
			continue
		}
		added += a.kept
	}
	return prompts, added, nil
}
