package dataset

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzLoadDir feeds arbitrary meta.json and train.json bytes, next to
// the valid and test splits of a tiny SaveDir output, through LoadDir.
// Every input must load or return an error, never panic; a dataset that
// loads validates, and its train split holds each key's entry exactly
// once (no two keys may alias one id).
func FuzzLoadDir(f *testing.F) {
	seed := &Dataset{
		Name: "tiny", ClassNames: []string{"ham", "spam"}, DefaultClass: NoDefaultClass,
		TrainLabeled: true,
		Train: []*Example{
			{ID: 0, Label: 0, Text: "see you at lunch"},
			{ID: 1, Label: 1, Text: "check out my channel"},
			{ID: 2, Label: 1, Text: "free prize click now"},
		},
		Valid: []*Example{{ID: 0, Label: 0, Text: "nice song"}},
		Test:  []*Example{{ID: 0, Label: 1, Text: "subscribe to me"}},
	}
	src := f.TempDir()
	if err := seed.SaveDir(src); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	meta, train, valid, test := read("meta.json"), read("train.json"), read("valid.json"), read("test.json")
	f.Add(meta, train)
	f.Add(meta, []byte(`{"1": {"label": 0, "data": {"text": "first"}}, "01": {"label": 1, "data": {"text": "second"}}}`))
	f.Add(meta, []byte(`{"1": {"label": 0, "data": {"text": "first"}}, "1": {"label": 1, "data": {"text": "second"}}}`))
	f.Add(meta, []byte(`{"-4": {"label": 1, "data": {"text": "a"}}, "4": {"label": 0, "data": {"text": "b"}}}`))
	f.Add([]byte(`{"name": "r", "task": "relation", "classes": ["no", "yes"], "default_class": 0}`),
		[]byte(`{"0": {"label": -1, "data": {"text": "Alice met Bob", "entity1": "alice", "entity2": "bob"}}}`))
	f.Add(meta[:len(meta)/2], train[:len(train)/2])
	f.Fuzz(func(t *testing.T, meta, train []byte) {
		dir := t.TempDir()
		for name, b := range map[string][]byte{"meta.json": meta, "train.json": train, "valid.json": valid, "test.json": test} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := LoadDir(dir)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("loaded dataset does not validate: %v", err)
		}
		entries, err := scanEntries(train)
		if err != nil {
			t.Fatalf("train.json loaded but does not parse: %v", err)
		}
		if len(d.Train) != len(entries) {
			t.Fatalf("loaded %d train examples from %d keys", len(d.Train), len(entries))
		}
		want := make([]string, 0, len(entries))
		for _, ef := range entries {
			want = append(want, ef.Data.Text)
		}
		got := make([]string, len(d.Train))
		for i, e := range d.Train {
			got[i] = e.Text
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("train texts %q, want each key's entry once: %q", got, want)
		}
	})
}

// scanEntries reads a split object's entries in file order with the
// token reader, keeping a repeated key's every entry, so the oracle
// counts the keys the file holds rather than the ones a map keeps.
func scanEntries(raw []byte) ([]exampleFile, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	var entries []exampleFile
	for dec.More() {
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
		var ef exampleFile
		if err := dec.Decode(&ef); err != nil {
			return nil, err
		}
		entries = append(entries, ef)
	}
	return entries, nil
}
