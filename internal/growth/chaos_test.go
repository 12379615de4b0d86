package growth

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/ckpt"
	"datasculpt/internal/llm"
	"datasculpt/internal/registry"
)

// errKilled is the chaos tests' SIGKILL stand-in: the afterCheckpoint
// hook returns it at a chosen boundary, aborting the cycle exactly
// where a real kill would leave the durable state.
var errKilled = errors.New("chaos: killed")

// chaosWrap degrades every live LLM call with seed-derived faults
// behind a fast retry — the daemon must produce identical state whether
// or not the provider misbehaved, because retries absorb the faults and
// the journal replays past them.
func chaosWrap(cycle, iter int, m llm.ChatModel) llm.ChatModel {
	inj := llm.NewFaultInjector(m, llm.FaultRates{RateLimit: 0.15, Timeout: 0.1}, 977+100003*int64(cycle)+int64(iter))
	return llm.NewRetry(inj,
		llm.WithRetryAttempts(6),
		llm.WithRetryBackoff(time.Microsecond, time.Millisecond))
}

// chaosDaemon builds a daemon over stateDir with a fresh registry (a
// restarted process has a fresh registry too) and the given kill hook.
func chaosDaemon(t *testing.T, stateDir, path string, hook func(string) error) *Daemon {
	t.Helper()
	_, d, _ := trained(t)
	parent, err := bundle.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, registry.Options{}, path)
	dmn, err := New(Config{
		Tenant: "t", Registry: reg, Base: d, Parent: parent,
		Pipeline: growthPipeline(), StateDir: stateDir,
		Budget: 4, MinCorpus: 8,
		WrapModel:       chaosWrap,
		afterCheckpoint: hook,
		now:             func() int64 { return 1_754_100_000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return dmn
}

// TestGrowthChaos is the growth loop's durability proof: kill the
// daemon at every checkpoint boundary of a cycle — including
// "promoted", between the registry swap and the journal row — restart
// it cold over the same state dir, and require the resumed cycle to
// finish with a candidate bundle byte-identical to an uninterrupted
// run's, and the same journal row. Run under -race via `make
// grow-chaos`.
func TestGrowthChaos(t *testing.T) {
	_, d, path := trained(t)
	texts := corpusTexts(d, 24)

	// Reference run: no kills, record the boundary sequence.
	refDir := t.TempDir()
	var boundaries []string
	ref := chaosDaemon(t, refDir, path, func(stage string) error {
		boundaries = append(boundaries, stage)
		return nil
	})
	ref.Capture("t", texts)
	refRec, err := ref.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if refRec == nil || refRec.CandidateHash == "" {
		t.Fatalf("reference cycle built no candidate (%+v); the chaos fixture must exercise the full state machine", refRec)
	}
	refCand, err := os.ReadFile(filepath.Join(refDir, "candidate-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(refRec)
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"snapshot", "proposed", "candidate", "promoted", "recorded"}
	for _, s := range wantStages {
		found := false
		for _, b := range boundaries {
			found = found || b == s
		}
		if !found {
			t.Fatalf("reference run never checkpointed %q (saw %v)", s, boundaries)
		}
	}

	for _, stage := range boundaries {
		t.Run("kill-after-"+stage, func(t *testing.T) {
			dir := t.TempDir()

			// Phase 1: identical capture sequence, killed at the boundary.
			victim := chaosDaemon(t, dir, path, func(s string) error {
				if s == stage {
					return errKilled
				}
				return nil
			})
			victim.Capture("t", texts)
			_, err := victim.RunCycle(context.Background())
			if !errors.Is(err, errKilled) {
				t.Fatalf("kill at %s: err = %v, want errKilled", stage, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("interrupted after %s", stage)) {
				t.Fatalf("kill error does not name the boundary: %v", err)
			}

			// Phase 2: cold restart over the same state dir; the resumed
			// cycle must not need the reservoir refilled.
			resumed := chaosDaemon(t, dir, path, nil)
			rec, err := resumed.RunCycle(context.Background())
			if err != nil {
				t.Fatalf("resume after %s: %v", stage, err)
			}
			gotJSON, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(refJSON) {
				t.Errorf("journal row diverged after kill at %s:\n got %s\nwant %s", stage, gotJSON, refJSON)
			}
			cand, err := os.ReadFile(filepath.Join(dir, "candidate-1.json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(cand) != string(refCand) {
				t.Errorf("candidate bytes diverged after kill at %s (%d vs %d bytes)", stage, len(cand), len(refCand))
			}
			if _, err := os.Stat(filepath.Join(dir, "cycle")); !os.IsNotExist(err) {
				t.Errorf("resume after %s left the workspace behind: %v", stage, err)
			}
			rows, err := ckpt.Load(filepath.Join(dir, "growth.jsonl"),
				func(r *CycleRecord) bool { return r.Outcome != "" })
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 {
				t.Errorf("journal holds %d rows after kill+resume, want exactly 1", len(rows))
			}
		})
	}
}

// TestGrowthInvalidUTF8Resume: a captured corpus holding texts that are
// not valid UTF-8 gives the same journal row and candidate bytes when
// the cycle runs straight through as when it is killed after the
// snapshot and resumed from the snapshot file, which holds that text
// with U+FFFD in place of each invalid byte.
func TestGrowthInvalidUTF8Resume(t *testing.T) {
	_, d, path := trained(t)
	texts := corpusTexts(d, 24)
	// Every text carries invalid bytes, whichever the proposer queries.
	// The pipeline reads captured text through the tokenizer, which
	// treats an invalid byte and U+FFFD alike, so TestSnapshotRoundTrip
	// is what pins the texts themselves.
	for i := range texts {
		texts[i] = "\xc3" + texts[i] + " caf\xe9 \xff\xfe\xfd\xfc"
	}

	run := func(dir string, hook func(string) error) (*CycleRecord, []byte) {
		t.Helper()
		dmn := chaosDaemon(t, dir, path, hook)
		dmn.Capture("t", texts)
		rec, err := dmn.RunCycle(context.Background())
		if errors.Is(err, errKilled) {
			rec, err = chaosDaemon(t, dir, path, nil).RunCycle(context.Background())
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || rec.CandidateHash == "" {
			t.Fatalf("cycle built no candidate: %+v", rec)
		}
		cand, err := os.ReadFile(filepath.Join(dir, "candidate-1.json"))
		if err != nil {
			t.Fatal(err)
		}
		return rec, cand
	}
	straight, straightCand := run(t.TempDir(), nil)
	resumed, resumedCand := run(t.TempDir(), func(stage string) error {
		if stage == "snapshot" {
			return errKilled
		}
		return nil
	})
	if *straight != *resumed {
		t.Errorf("journal row straight through %+v, after a kill at the snapshot %+v", *straight, *resumed)
	}
	if string(straightCand) != string(resumedCand) {
		t.Errorf("candidate bytes differ straight through and after a kill at the snapshot (%d vs %d bytes)", len(straightCand), len(resumedCand))
	}
}

// TestGrowthTornCandidateResume cuts cycle/candidate.json short after
// the candidate checkpoint: the resumed cycle rebuilds the candidate
// from its journaled steps, so its journal row and archive bytes equal
// an uninterrupted run's.
func TestGrowthTornCandidateResume(t *testing.T) {
	_, d, path := trained(t)
	texts := corpusTexts(d, 24)
	refDir := t.TempDir()
	ref := chaosDaemon(t, refDir, path, nil)
	ref.Capture("t", texts)
	refRec, err := ref.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if refRec == nil || refRec.CandidateHash == "" {
		t.Fatalf("reference cycle built no candidate: %+v", refRec)
	}
	refCand, err := os.ReadFile(filepath.Join(refDir, "candidate-1.json"))
	if err != nil {
		t.Fatal(err)
	}

	for name, cut := range map[string]int{"empty": 0, "one-byte": 1, "half": len(refCand) / 2} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			victim := chaosDaemon(t, dir, path, func(s string) error {
				if s == "candidate" {
					return errKilled
				}
				return nil
			})
			victim.Capture("t", texts)
			if _, err := victim.RunCycle(context.Background()); !errors.Is(err, errKilled) {
				t.Fatalf("kill at candidate: err = %v", err)
			}
			if err := os.Truncate(filepath.Join(dir, "cycle", "candidate.json"), int64(cut)); err != nil {
				t.Fatal(err)
			}
			rec, err := chaosDaemon(t, dir, path, nil).RunCycle(context.Background())
			if err != nil {
				t.Fatalf("resume over a torn candidate: %v", err)
			}
			if *rec != *refRec {
				t.Errorf("journal row %+v, uninterrupted %+v", *rec, *refRec)
			}
			cand, err := os.ReadFile(filepath.Join(dir, "candidate-1.json"))
			if err != nil {
				t.Fatal(err)
			}
			if string(cand) != string(refCand) {
				t.Errorf("archive bytes diverged (%d vs %d bytes)", len(cand), len(refCand))
			}
		})
	}
}

// TestSnapshotRoundTrip: the texts a fresh cycle keeps in memory are the
// texts a resumed cycle reads back from its snapshot, and both are what
// encoding/json gives back — escapes, NUL, non-ASCII and invalid UTF-8
// bytes included.
func TestSnapshotRoundTrip(t *testing.T) {
	_, _, path := trained(t)
	texts := []string{
		"plain text",
		"quote \" back\\slash\ttab\nnewline",
		"<b>&amp;</b>   \x00 café 日本 😀",
		" ",
		"line\u2028separator \ufffd kept",
		"bad \xff byte",
		"\xc3 \xed\xa0\x80 surrogate, \xf0\x9f\x98 cut rune",
		"caf\xe9 \xff\xfe\xfd\xfc",
	}
	dmn := chaosDaemon(t, t.TempDir(), path, nil)
	dmn.Capture("t", texts)
	fresh, err := dmn.loadOrStartCycle(context.Background())
	if err != nil || fresh == nil {
		t.Fatalf("fresh cycle: %v, %v", fresh, err)
	}
	resumed, err := dmn.loadOrStartCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, resumed) {
		t.Fatalf("fresh manifest %+v, read back %+v", fresh, resumed)
	}
	for i, text := range texts {
		data, err := json.Marshal(text)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if fresh.Texts[i] != want {
			t.Errorf("text %d: fresh cycle holds %q, encoding/json gives back %q", i, fresh.Texts[i], want)
		}
	}
}

// TestSnapshotValidation: a workspace whose snapshot does not parse or
// does not fit the journal, or that has none, is discarded and the
// cycle restarts from the reservoir (empty here, so no cycle runs).
func TestSnapshotValidation(t *testing.T) {
	_, _, path := trained(t)
	header := func(cycle, corpusLen, budget int) string {
		return fmt.Sprintf(`{"cycle":%d,"seed":1,"created_unix":1,"corpus_len":%d,"budget":%d}`+"\n", cycle, corpusLen, budget)
	}
	for name, files := range map[string]map[string]string{
		"not-json":        {"snapshot.jsonl": "{not json\n"},
		"empty":           {"snapshot.jsonl": ""},
		"text-not-string": {"snapshot.jsonl": header(1, 1, 2) + "7\n"},
		"null-text":       {"snapshot.jsonl": header(1, 1, 2) + "null\n"},
		"truncated-line":  {"snapshot.jsonl": header(1, 2, 2) + "\"a\"\n\"b"},
		"trailing-value":  {"snapshot.jsonl": header(1, 1, 2) + "\"a\"\n]"},
		"corpus-len":      {"snapshot.jsonl": header(1, 2, 2) + "\"a\"\n"},
		"no-texts":        {"snapshot.jsonl": header(1, 0, 2)},
		"no-budget":       {"snapshot.jsonl": header(1, 1, 0) + "\"a\"\n"},
		"no-timestamp":    {"snapshot.jsonl": `{"cycle":1,"seed":1,"corpus_len":1,"budget":2}` + "\n\"a\"\n"},
		"future-cycle":    {"snapshot.jsonl": header(2, 1, 2) + "\"a\"\n"},
		"cycle-zero":      {"snapshot.jsonl": header(0, 1, 2) + "\"a\"\n"},
		"no-snapshot":     {"steps.jsonl": "{}\n"},
		"old-layout": {
			"manifest.json": header(1, 1, 2),
			"corpus.jsonl":  `{"id":0,"label":-1,"text":"a"}` + "\n",
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ws := filepath.Join(dir, "cycle")
			if err := os.Mkdir(ws, 0o755); err != nil {
				t.Fatal(err)
			}
			for file, data := range files {
				if err := os.WriteFile(filepath.Join(ws, file), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rec, err := chaosDaemon(t, dir, path, nil).RunCycle(context.Background())
			if rec != nil || err != nil {
				t.Fatalf("RunCycle = %+v, %v; want the workspace discarded and no cycle", rec, err)
			}
			if _, err := os.Stat(ws); !os.IsNotExist(err) {
				t.Fatalf("workspace kept: %v", err)
			}
		})
	}
}
