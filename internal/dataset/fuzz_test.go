package dataset

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJSONLReader feeds arbitrary bytes as a .jsonl split through
// OpenJSONL and Next under both task types. The reader must never panic;
// every example it returns carries the next sequential ID, and a
// relation example always has both entities located in its tokens.
func FuzzJSONLReader(f *testing.F) {
	var good bytes.Buffer
	if err := WriteSplitJSONL(&good, []*Example{
		{ID: 0, Label: 1, Text: "check out my channel"},
		{ID: 1, Label: 0, Text: "Alice founded Acme in Paris", Entity1: "Alice", Entity2: "Acme"},
		{ID: 2, Label: 2, Text: "Bob met Bob again", Entity1: "Bob", Entity2: "Bob"},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add([]byte(`{"id":10,"label":1,"text":"a"}` + "\n\n" + `{"id":20,"label":0,"text":"b"}` + "\n"))
	f.Add([]byte(`{"id":3,"label":1,"text":"a"}` + "\n" + `{"id":3,"label":0,"text":"b"}` + "\n"))
	f.Add([]byte(`{"id":0,"text":"x","entity1":"","entity2":"x"}`))
	f.Add([]byte(`{"id":0,"text":"New York, New York","entity1":"new york","entity2":"New York"}`))
	f.Add([]byte("\n\n{}\n[]\nnull\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "split.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, task := range []TaskType{TextClassification, RelationClassification} {
			r, err := OpenJSONL(path, task)
			if err != nil {
				t.Fatal(err)
			}
			for want := 0; ; want++ {
				e, err := r.Next()
				if err != nil {
					if err != io.EOF && e != nil {
						t.Fatalf("example %+v returned with error %v", e, err)
					}
					break
				}
				if e.ID != want {
					t.Fatalf("example ID %d, want sequential %d", e.ID, want)
				}
				if task == RelationClassification &&
					(e.E1Pos < 0 || e.E2Pos < 0 || e.E1Pos >= len(e.Tokens) || e.E2Pos >= len(e.Tokens)) {
					t.Fatalf("relation example with unlocated entities: E1Pos=%d E2Pos=%d over %d tokens",
						e.E1Pos, e.E2Pos, len(e.Tokens))
				}
				e.FeatureTokens()
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
