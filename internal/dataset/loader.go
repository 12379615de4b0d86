package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// This file implements interchange with the WRENCH benchmark's on-disk
// JSON layout, so the pipeline can run against real corpora when they are
// available (the synthetic generators remain the offline default):
//
//	<dir>/meta.json    {"name": ..., "task": ..., "classes": [...], ...}
//	<dir>/train.json   {"0": {"label": 1, "data": {"text": ...}}, ...}
//	<dir>/valid.json
//	<dir>/test.json
//
// Each example object carries the instance under "data"; relation tasks
// add "entity1"/"entity2". Unlabeled splits use label -1. Example ids are
// the JSON object keys, canonical decimal strings ("7", never "07" or
// "+7"), so no two keys name the same id; the loader orders examples by
// them and renumbers them 0..n-1 as Example.ID.

// metaFile mirrors meta.json.
type metaFile struct {
	Name         string   `json:"name"`
	Task         string   `json:"task"` // "text" | "relation"
	Classes      []string `json:"classes"`
	DefaultClass *int     `json:"default_class,omitempty"`
	Imbalanced   bool     `json:"imbalanced"`
	TrainLabeled bool     `json:"train_labeled"`
	// Prompt metadata (optional; defaults are derived from Name).
	TaskDescription string `json:"task_description,omitempty"`
	InstanceNoun    string `json:"instance_noun,omitempty"`
}

// exampleFile mirrors one entry of a split file.
type exampleFile struct {
	Label int             `json:"label"`
	Data  exampleFileData `json:"data"`
}

type exampleFileData struct {
	Text    string `json:"text"`
	Entity1 string `json:"entity1,omitempty"`
	Entity2 string `json:"entity2,omitempty"`
}

// LoadDir reads a dataset from a WRENCH-style directory. Datasets loaded
// from disk have no signal table, so they cannot drive the simulated LLM
// — pair them with a real ChatModel implementation — but every other
// component (filters, label models, end model, vote statistics) works
// unchanged.
func LoadDir(dir string) (*Dataset, error) {
	metaRaw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("dataset: reading meta.json: %w", err)
	}
	var meta metaFile
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, fmt.Errorf("dataset: parsing meta.json: %w", err)
	}
	if meta.Name == "" {
		return nil, fmt.Errorf("dataset: meta.json missing name")
	}
	if len(meta.Classes) < 2 {
		return nil, fmt.Errorf("dataset: meta.json declares %d classes", len(meta.Classes))
	}
	d := &Dataset{
		Name:            meta.Name,
		ClassNames:      meta.Classes,
		DefaultClass:    NoDefaultClass,
		Imbalanced:      meta.Imbalanced,
		TrainLabeled:    meta.TrainLabeled,
		TaskDescription: meta.TaskDescription,
		InstanceNoun:    meta.InstanceNoun,
	}
	switch meta.Task {
	case "text", "":
		d.Task = TextClassification
	case "relation":
		d.Task = RelationClassification
	default:
		return nil, fmt.Errorf("dataset: unknown task %q", meta.Task)
	}
	if meta.DefaultClass != nil {
		d.DefaultClass = *meta.DefaultClass
	}
	if d.TaskDescription == "" {
		d.TaskDescription = fmt.Sprintf("a classification task over the %s dataset.", meta.Name)
	}
	if d.InstanceNoun == "" {
		d.InstanceNoun = "text passage"
	}

	for _, split := range []struct {
		file    string
		dst     *[]*Example
		labeled bool
	}{
		{"train.json", &d.Train, meta.TrainLabeled},
		{"valid.json", &d.Valid, true},
		{"test.json", &d.Test, true},
	} {
		examples, err := loadSplit(filepath.Join(dir, split.file), d.Task)
		if err != nil {
			return nil, err
		}
		if !split.labeled {
			for _, e := range examples {
				e.Label = NoLabel
			}
		}
		*split.dst = examples
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", dir, err)
	}
	return d, nil
}

// loadSplit reads one split file and returns examples ordered by their
// numeric ids. The object is scanned key by key rather than decoded into
// a map, so a key that appears twice is an error, not a silent overwrite
// of the first entry.
func loadSplit(path string, task TaskType) ([]*Example, error) {
	name := filepath.Base(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading %s: %w", name, err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, fmt.Errorf("dataset: parsing %s: want a JSON object of examples", name)
	}
	var ids []int
	byID := map[int]exampleFile{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("dataset: parsing %s: %w", name, err)
		}
		key, _ := tok.(string)
		id, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: non-numeric id %q", name, key)
		}
		// "1" and "01" parse to the same id; accepting both would keep
		// whichever came last.
		if canon := strconv.Itoa(id); key != canon {
			return nil, fmt.Errorf("dataset: %s: non-canonical id %q (want %q)", name, key, canon)
		}
		if _, dup := byID[id]; dup {
			return nil, fmt.Errorf("dataset: %s: repeated id %q", name, key)
		}
		var ef exampleFile
		if err := dec.Decode(&ef); err != nil {
			return nil, fmt.Errorf("dataset: parsing %s: %w", name, err)
		}
		ids = append(ids, id)
		byID[id] = ef
	}
	if _, err := dec.Token(); err != nil {
		return nil, fmt.Errorf("dataset: parsing %s: %w", name, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("dataset: parsing %s: data after the examples object", name)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("dataset: %s is empty", name)
	}
	sort.Ints(ids)
	out := make([]*Example, 0, len(ids))
	for i, id := range ids {
		ef := byID[id]
		e := &Example{
			ID:      i,
			Text:    ef.Data.Text,
			Label:   ef.Label,
			Entity1: ef.Data.Entity1,
			Entity2: ef.Data.Entity2,
			E1Pos:   -1,
			E2Pos:   -1,
		}
		e.EnsureTokens()
		if task == RelationClassification {
			e.E1Pos, e.E2Pos = locateEntities(e)
			if e.E1Pos < 0 || e.E2Pos < 0 {
				return nil, fmt.Errorf("dataset: %s id %d: entities %q/%q not found in text",
					name, id, ef.Data.Entity1, ef.Data.Entity2)
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// locateEntities finds the first token positions of both entity mentions.
func locateEntities(e *Example) (int, int) {
	find := func(name string, from int) int {
		want := tokenizeName(name)
		if len(want) == 0 {
			return -1
		}
	outer:
		for i := from; i+len(want) <= len(e.Tokens); i++ {
			for j, w := range want {
				if e.Tokens[i+j] != w {
					continue outer
				}
			}
			return i
		}
		return -1
	}
	p1 := find(e.Entity1, 0)
	if p1 < 0 {
		return -1, -1
	}
	p2 := find(e.Entity2, 0)
	if p2 == p1 { // same surface form: look for a later mention
		p2 = find(e.Entity2, p1+1)
	}
	return p1, p2
}

func tokenizeName(name string) []string {
	e := Example{Text: name}
	e.EnsureTokens()
	return e.Tokens
}

// SaveDir writes a dataset in the same WRENCH-style layout that LoadDir
// reads, making the synthetic corpora portable to other PWS tooling.
func (d *Dataset) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: creating %s: %w", dir, err)
	}
	taskName := "text"
	if d.Task == RelationClassification {
		taskName = "relation"
	}
	meta := metaFile{
		Name:            d.Name,
		Task:            taskName,
		Classes:         d.ClassNames,
		Imbalanced:      d.Imbalanced,
		TrainLabeled:    d.TrainLabeled,
		TaskDescription: d.TaskDescription,
		InstanceNoun:    d.InstanceNoun,
	}
	if d.DefaultClass != NoDefaultClass {
		dc := d.DefaultClass
		meta.DefaultClass = &dc
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
		return err
	}
	for _, split := range []struct {
		file string
		exs  []*Example
	}{
		{"train.json", d.Train},
		{"valid.json", d.Valid},
		{"test.json", d.Test},
	} {
		entries := make(map[string]exampleFile, len(split.exs))
		for _, e := range split.exs {
			entries[strconv.Itoa(e.ID)] = exampleFile{
				Label: e.Label,
				Data: exampleFileData{
					Text:    e.Text,
					Entity1: e.Entity1,
					Entity2: e.Entity2,
				},
			}
		}
		if err := writeJSON(filepath.Join(dir, split.file), entries); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("dataset: encoding %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("dataset: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}
