package ckpt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCkptOpen writes arbitrary bytes as a journal, opens it, appends
// one record and loads it back. Open must cut exactly the torn tail
// after the last newline, so Load returns the records of the intact
// lines before it followed by the new one — or, when one of those lines
// is malformed, reports corruption. Nothing may panic.
func FuzzCkptOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"n":1}` + "\n"))
	f.Add([]byte(`{"n":1}` + "\n" + `{"n":`))
	f.Add([]byte(`{"n":1}` + "\r\n\n" + `[2]` + "\n" + `{"torn`))
	f.Add([]byte("not json\n{\"n\":1}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		added := map[string]any{"added": true}
		if err := Append(path, added); err != nil {
			t.Fatal(err)
		}

		// The oracle: Load's line rules over the intact prefix.
		var want []any
		corrupt := false
		intact := data[:bytes.LastIndexByte(data, '\n')+1]
		for _, line := range bytes.Split(intact, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			var v any
			if json.Unmarshal(line, &v) != nil {
				corrupt = true
				break
			}
			want = append(want, v)
		}
		want = append(want, added)

		got, err := Load[any](path, nil)
		if corrupt {
			if err == nil {
				t.Fatalf("malformed intact line loaded without error: %v", got)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded %v, want %v", got, want)
		}
	})
}
