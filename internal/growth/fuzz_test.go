package growth

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"datasculpt/internal/bundle"
	"datasculpt/internal/registry"
)

// FuzzGrowthResume writes arbitrary bytes as the snapshot of a cycle in
// flight and runs a cycle on a fresh daemon over that state dir. The
// daemon resumes the snapshot, discards it, or returns an error; it
// never panics. A cycle that returns no error leaves no workspace, and
// a promoted one serves and archives exactly the candidate its journal
// row fingerprints.
func FuzzGrowthResume(f *testing.F) {
	_, d, path := trained(f)
	texts := corpusTexts(d, 24)
	snapshot := func(cycle, corpusLen, budget int, texts []string) []byte {
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"cycle":%d,"seed":9984,"created_unix":1754000000,"corpus_len":%d,"budget":%d}`+"\n", cycle, corpusLen, budget)
		enc := json.NewEncoder(&b)
		for _, t := range texts {
			if err := enc.Encode(t); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()
	}
	valid := snapshot(1, len(texts), 4, texts)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(snapshot(1, 1, 1, texts[:1]))
	f.Add(snapshot(1, 3, 2, []string{"", "\xff\xfe", "<b>&</b>  "}))
	f.Add(snapshot(2, len(texts), 4, texts))
	f.Add(snapshot(1, 2, 4, texts[:1]))
	f.Add([]byte(`{"cycle":1,"corpus_len":1,"budget":1}` + "\nnull\n"))
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		ws := filepath.Join(dir, "cycle")
		if err := os.Mkdir(ws, 0o755); err != nil {
			t.Fatal(err)
		}
		snap := filepath.Join(ws, "snapshot.jsonl")
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Each budget unit is one more proposer step of the same code;
		// a large one would only stall the fuzzer.
		if man, err := readSnapshot(snap); err == nil && man.Budget > 4 {
			t.Skip("budget above 4")
		}
		parent, err := bundle.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		reg := newTestRegistry(t, registry.Options{}, path)
		dmn, err := New(Config{
			Tenant: "t", Registry: reg, Base: d, Parent: parent,
			Pipeline: growthPipeline(), StateDir: dir,
			Budget: 4, MinCorpus: 8,
			now: func() int64 { return 1_754_000_000 },
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := dmn.RunCycle(context.Background())
		if err != nil {
			return
		}
		if _, err := os.Stat(ws); !os.IsNotExist(err) {
			t.Fatalf("cycle returned %+v and left its workspace: %v", rec, err)
		}
		if rec == nil || rec.Outcome != OutcomePromoted {
			return
		}
		archive, err := bundle.Load(filepath.Join(dir, fmt.Sprintf("candidate-%d.json", rec.Cycle)))
		if err != nil {
			t.Fatalf("promoted cycle without an archive: %v", err)
		}
		if fp, err := bundle.Fingerprint(archive); err != nil || fp != rec.CandidateHash {
			t.Fatalf("archive fingerprints %s (%v), journal row says %s", fp, err, rec.CandidateHash)
		}
		if st := dmn.Status(); st.Parent != rec.CandidateHash {
			t.Fatalf("lineage head %s, journal row says %s", st.Parent, rec.CandidateHash)
		}
		info := reg.List()
		if len(info) != 1 || info[0].Generation != rec.Generation || info[0].Provenance != archive.Provenance {
			t.Fatalf("registry serves %+v, the row promoted generation %d with provenance %+v", info, rec.Generation, archive.Provenance)
		}
	})
}
