package main

import (
	"regexp"
	"testing"

	"datasculpt/examples/internal/golden"
)

// demoDir matches the export directory's name, whose suffix varies.
var demoDir = regexp.MustCompile(`datasculpt-custom-[^/\s]+`)

// TestStdoutGolden runs the example against a private temp directory
// and pins its output byte for byte, with that directory's path masked.
func TestStdoutGolden(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	out := golden.Stdout(t, main)
	out = regexp.MustCompile(regexp.QuoteMeta(tmp)).ReplaceAll(out, []byte("$$TMPDIR"))
	golden.Check(t, demoDir.ReplaceAll(out, []byte("datasculpt-custom-*")))
}
