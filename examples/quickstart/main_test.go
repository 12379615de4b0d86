package main

import (
	"testing"

	"datasculpt/examples/internal/golden"
)

// TestStdoutGolden runs the example and pins its output byte for byte.
func TestStdoutGolden(t *testing.T) {
	golden.Check(t, golden.Stdout(t, main))
}
