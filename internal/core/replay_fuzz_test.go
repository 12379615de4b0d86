package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datasculpt/internal/ckpt"
	"datasculpt/internal/dataset"
)

// replayFixture is the small proposer setup the journal fuzzer replays
// onto: a fresh Proposer per input, because Replay mutates it.
func replayFixture(tb testing.TB) (*dataset.Dataset, Config) {
	tb.Helper()
	d, err := dataset.Load("youtube", 17, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	return d, proposerConfig()
}

// liveJournal runs budget live steps and returns them as the growth
// loop writes them: one ckpt JSONL record per step.
func liveJournal(tb testing.TB, d *dataset.Dataset, cfg Config, budget int) []byte {
	tb.Helper()
	p, err := NewProposer(d, cfg, ProposerOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	defer p.Close()
	path := filepath.Join(tb.TempDir(), "steps.jsonl")
	w, err := ckpt.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	for it := 0; it < budget; it++ {
		st, err := p.Step(context.Background(), it)
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.Append(st); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// replayJournal is the growth loop's resume path over arbitrary bytes:
// write them as steps.jsonl, load them, replay every step onto a fresh
// proposer. It returns the loaded steps, the load error, and the first
// Replay error. Along the way it checks the invariants that hold for
// any input: a load error is reported corruption, a replay error is a
// rejected record, and a clean replay accepts exactly the LFs the
// journal says it kept.
func replayJournal(t *testing.T, d *dataset.Dataset, cfg Config, data []byte) ([]ProposalStep, error, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "steps.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	steps, loadErr := ckpt.Load[ProposalStep](path, nil)
	if loadErr != nil {
		if !strings.Contains(loadErr.Error(), "malformed record") && !strings.Contains(loadErr.Error(), "reading") {
			t.Fatalf("unexpected load error: %v", loadErr)
		}
		return nil, loadErr, nil
	}
	p, err := NewProposer(d, cfg, ProposerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	kept := 0
	for i := range steps {
		st := &steps[i]
		if err := p.Replay(st); err != nil {
			if !strings.Contains(err.Error(), "out of range") && !strings.Contains(err.Error(), "state diverged") {
				t.Fatalf("step %d: unexpected replay error: %v", i, err)
			}
			return steps, nil, err
		}
		if !st.Exhausted && !st.Failed && !st.ParseFailed {
			kept += st.Kept
		}
	}
	if p.NewCount() != kept {
		t.Fatalf("clean replay accepted %d LFs, journal kept %d", p.NewCount(), kept)
	}
	if _, err := p.Evaluate(); err != nil {
		t.Fatalf("evaluating a cleanly replayed journal: %v", err)
	}
	return steps, nil, nil
}

// journalSeeds returns the fuzzer's seed corpus, keyed by shape: a real
// journal and the four ways one goes wrong.
func journalSeeds(tb testing.TB, d *dataset.Dataset, cfg Config) map[string][]byte {
	tb.Helper()
	real := liveJournal(tb, d, cfg, 8)
	lines := bytes.SplitAfter(real, []byte("\n"))
	torn := append(append([]byte(nil), real...), lines[0][:len(lines[0])/2]...)
	garbage := append(append(append([]byte(nil), lines[0]...), "{not json\n"...), bytes.Join(lines[1:], nil)...)
	return map[string][]byte{
		"real":      real,
		"torn":      torn,
		"garbage":   garbage,
		"query-id":  []byte(`{"iter":0,"query_id":1000000,"keywords":["subscribe"],"label":1,"kept":1}` + "\n"),
		"bad-label": []byte(`{"iter":0,"query_id":3,"keywords":["subscribe"],"label":7,"kept":1}` + "\n"),
	}
}

// TestReplayJournalShapes pins what resuming does with each seed shape.
func TestReplayJournalShapes(t *testing.T) {
	d, cfg := replayFixture(t)
	seeds := journalSeeds(t, d, cfg)

	steps, loadErr, replayErr := replayJournal(t, d, cfg, seeds["real"])
	if loadErr != nil || replayErr != nil || len(steps) != 8 {
		t.Fatalf("real journal: %d steps, load %v, replay %v", len(steps), loadErr, replayErr)
	}
	if steps, loadErr, replayErr := replayJournal(t, d, cfg, seeds["torn"]); loadErr != nil || replayErr != nil || len(steps) != 8 {
		t.Errorf("torn tail must be skipped: %d steps, load %v, replay %v", len(steps), loadErr, replayErr)
	}
	if _, loadErr, _ := replayJournal(t, d, cfg, seeds["garbage"]); loadErr == nil {
		t.Error("mid-file garbage loaded without error")
	}
	if _, _, replayErr := replayJournal(t, d, cfg, seeds["query-id"]); replayErr == nil || !strings.Contains(replayErr.Error(), "out of range") {
		t.Errorf("out-of-range query id: replay error %v", replayErr)
	}
	if _, _, replayErr := replayJournal(t, d, cfg, seeds["bad-label"]); replayErr == nil || !strings.Contains(replayErr.Error(), "state diverged") {
		t.Errorf("bad label: replay error %v", replayErr)
	}
}

// FuzzProposerReplay feeds arbitrary bytes to the growth loop's resume
// path as a steps.jsonl journal. Whatever the bytes, loading and
// replaying must never panic, and every failure must be one of the
// reported kinds (see replayJournal).
func FuzzProposerReplay(f *testing.F) {
	d, cfg := replayFixture(f)
	seeds := journalSeeds(f, d, cfg)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		replayJournal(t, d, cfg, data)
	})
}
