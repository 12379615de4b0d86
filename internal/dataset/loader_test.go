package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig, err := Load("youtube", 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := orig.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.Task != orig.Task ||
		back.NumClasses() != orig.NumClasses() || back.Imbalanced != orig.Imbalanced ||
		back.TrainLabeled != orig.TrainLabeled || back.DefaultClass != orig.DefaultClass {
		t.Errorf("metadata mismatch: %+v vs %+v", back, orig)
	}
	if len(back.Train) != len(orig.Train) || len(back.Valid) != len(orig.Valid) ||
		len(back.Test) != len(orig.Test) {
		t.Fatal("split sizes mismatch")
	}
	for i := range orig.Train {
		if back.Train[i].Text != orig.Train[i].Text || back.Train[i].Label != orig.Train[i].Label {
			t.Fatalf("train[%d] mismatch", i)
		}
	}
	// loaded datasets have no signal table
	if back.Signal != nil {
		t.Error("loaded dataset unexpectedly has a signal table")
	}
}

func TestSaveLoadRelationRoundTrip(t *testing.T) {
	orig, err := Load("spouse", 3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := orig.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Task != RelationClassification {
		t.Fatal("relation task lost")
	}
	for i, e := range back.Valid {
		o := orig.Valid[i]
		if e.Entity1 != o.Entity1 || e.Entity2 != o.Entity2 {
			t.Fatalf("valid[%d] entities mismatch", i)
		}
		// entity positions are recomputed at load time and must point at
		// the entity mentions
		got := e.Tokens[e.E1Pos] + " " + e.Tokens[e.E1Pos+1]
		if got != e.Entity1 {
			t.Fatalf("valid[%d] E1Pos points at %q, want %q", i, got, e.Entity1)
		}
	}
	// spouse train stays unlabeled through the round trip
	for _, e := range back.Train {
		if e.Label != NoLabel {
			t.Fatal("unlabeled train example got a label")
		}
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}

	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("meta.json", `{"classes": ["a","b"]}`)
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("missing name: %v", err)
	}
	write("meta.json", `{"name": "x", "classes": ["a"]}`)
	if _, err := LoadDir(dir); err == nil {
		t.Error("single class accepted")
	}
	write("meta.json", `{"name": "x", "classes": ["a","b"], "task": "vision"}`)
	if _, err := LoadDir(dir); err == nil {
		t.Error("unknown task accepted")
	}
	write("meta.json", `{"name": "x", "classes": ["a","b"], "train_labeled": true}`)
	if _, err := LoadDir(dir); err == nil {
		t.Error("missing splits accepted")
	}
	write("train.json", `{"zero": {"label": 0, "data": {"text": "hi there"}}}`)
	write("valid.json", `{"0": {"label": 0, "data": {"text": "hi there"}}}`)
	write("test.json", `{"0": {"label": 0, "data": {"text": "hi there"}}}`)
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Errorf("non-numeric id: %v", err)
	}
	// "1" and "01" are the same id: loading both would silently drop one.
	write("train.json", `{"1": {"label": 0, "data": {"text": "first"}},
		"01": {"label": 1, "data": {"text": "second"}},
		"2": {"label": 0, "data": {"text": "third"}}}`)
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), `train.json: non-canonical id "01"`) {
		t.Errorf("aliased ids: %v", err)
	}
	write("train.json", `{"+3": {"label": 0, "data": {"text": "hi there"}}}`)
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), `train.json: non-canonical id "+3"`) {
		t.Errorf("signed id: %v", err)
	}
	// A key repeated verbatim would otherwise overwrite its first entry.
	write("train.json", `{"1": {"label": 0, "data": {"text": "first"}},
		"1": {"label": 1, "data": {"text": "second"}},
		"2": {"label": 0, "data": {"text": "third"}}}`)
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), `train.json: repeated id "1"`) {
		t.Errorf("repeated key: %v", err)
	}
	for _, bad := range []string{
		`null`,
		`[{"label": 0, "data": {"text": "hi there"}}]`,
		`{"0": {"label": 0, "data": {"text": "hi there"}}`,
		`{"0": {"label": 0, "data": {"text": "hi there"}}} {}`,
		`{"0": {"label": "zero", "data": {"text": "hi there"}}}`,
	} {
		write("train.json", bad)
		if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "parsing train.json") {
			t.Errorf("malformed split %s: %v", bad, err)
		}
	}
}

func TestLoadDirRelationEntityMissing(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"meta.json": `{"name": "rel", "task": "relation", "classes": ["no","yes"], "train_labeled": true}`,
		"train.json": `{"0": {"label": 1, "data": {"text": "alice smith married bob jones",
			"entity1": "alice smith", "entity2": "carol white"}}}`,
		"valid.json": `{"0": {"label": 0, "data": {"text": "x", "entity1": "a", "entity2": "b"}}}`,
		"test.json":  `{"0": {"label": 0, "data": {"text": "x", "entity1": "a", "entity2": "b"}}}`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "not found in text") {
		t.Errorf("missing entity: %v", err)
	}
}

func TestLocateEntitiesSameSurface(t *testing.T) {
	e := &Example{
		Text:    "john met john at the fair",
		Entity1: "john",
		Entity2: "john",
	}
	e.EnsureTokens()
	p1, p2 := locateEntities(e)
	if p1 != 0 || p2 != 2 {
		t.Errorf("positions = %d,%d, want 0,2 (distinct mentions)", p1, p2)
	}
}
