package datasculpt_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datasculpt"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden with the package's current exported names")

// TestPublicAPIEndToEnd exercises the exported surface the examples use:
// dataset loading, the pipeline, external LF evaluation and the WRENCH
// baseline.
func TestPublicAPIEndToEnd(t *testing.T) {
	d, err := datasculpt.LoadDataset("youtube", 9, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := datasculpt.DefaultConfig(datasculpt.VariantBase)
	cfg.Seed = 9
	cfg.Iterations = 15
	res, err := datasculpt.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLFs == 0 || res.TotalTokens() == 0 {
		t.Errorf("run result = %+v", res)
	}

	// hand-written LF through the public constructors
	spam, err := datasculpt.NewKeywordLF("subscribe", 1)
	if err != nil {
		t.Fatal(err)
	}
	ham, err := datasculpt.NewKeywordLF("melody", 0)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := datasculpt.EvaluateLFSet(d, []datasculpt.LabelFunction{spam, ham}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if manual.NumLFs != 2 {
		t.Errorf("manual set = %+v", manual)
	}

	wr, err := datasculpt.WrenchLFs(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr) != 10 {
		t.Errorf("wrench LFs = %d", len(wr))
	}

	// relation-task LF constructor
	rel, err := datasculpt.NewEntityKeywordLF("married", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Keyword != "married" {
		t.Errorf("entity LF = %+v", rel)
	}
}

// TestPublicSurface pins the sorted exported names of package datasculpt
// to testdata/api.golden, so any growth of the public surface shows up
// as a diff. Each name must have a caller in examples/, a README code
// block or example_test.go.
func TestPublicSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.IsExported() {
					names = append(names, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							names = append(names, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := []byte(strings.Join(names, "\n") + "\n")
	golden := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exported names drifted from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
