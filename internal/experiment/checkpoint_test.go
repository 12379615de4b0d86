package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datasculpt/internal/ckpt"
)

// TestLoadCheckpointGolden pins the checkpoint record format: a fixture
// with every field set (omitempty ones included) must load completely
// and re-append byte for byte, so a resume never loses or renames a
// statistic the grid renders.
func TestLoadCheckpointGolden(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint.golden.jsonl")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(want), []byte("\n")) {
		var raw struct {
			Result map[string]any `json:"result"`
		}
		if err := json.Unmarshal(line, &raw); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if len(raw.Result) != 13 {
			t.Errorf("fixture line %d has %d result fields, want all 13", i+1, len(raw.Result))
		}
		for k, v := range raw.Result {
			if v == float64(0) || v == false || v == "" {
				t.Errorf("fixture line %d: field %q is zero; every field must be set", i+1, k)
			}
		}
	}

	recs, err := LoadCheckpoint(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2", len(recs))
	}
	out := filepath.Join(t.TempDir(), "out.jsonl")
	w, err := ckpt.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-appended checkpoint differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes to LoadCheckpoint as a
// checkpoint file, the grid's resume trust boundary. It must never
// panic, every record it returns must carry a result, and the records
// it accepts must re-append and reload unchanged.
func FuzzCheckpointLoad(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint.golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte(`{"grid":"g","method":"m","dataset":"d","seed":1,"result":{"num_lfs":3}}` + "\n" + `{"grid":"g","met`))
	f.Add([]byte(`{"grid":"g","result":null}` + "\n"))
	f.Add([]byte("nonsense\n" + string(golden)))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := LoadCheckpoint(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.jsonl")
		w, err := ckpt.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Result == nil {
				t.Fatalf("record %+v has no result", rec)
			}
			if err := w.Append(rec); err != nil {
				t.Fatalf("re-appending %+v: %v", rec, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := LoadCheckpoint(out)
		if err != nil {
			t.Fatalf("reloading re-appended records: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("reload changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}
