package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"datasculpt/internal/dataset"
)

// scrambleTest moves every test label to the next class, so a decision
// that read test labels would come out differently.
func scrambleTest(d *dataset.Dataset) {
	k := len(d.ClassNames)
	for _, ex := range d.Test {
		ex.Label = (ex.Label + 1) % k
	}
}

// decisions renders everything of r that must not depend on test
// labels: the pinned runs.golden fields except end_metric, plus a hash
// of the end model's weights and biases bit for bit.
func decisions(r *Result) string {
	var buf bytes.Buffer
	writeResult(&buf, r)
	var out strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if !strings.HasPrefix(line, "end_metric:") {
			out.WriteString(line)
		}
	}
	if m := r.Artifacts.EndModel; m != nil {
		h := fnv.New64a()
		for _, w := range append(append([]float64(nil), m.W...), m.B...) {
			fmt.Fprintf(h, "%016x", math.Float64bits(w))
		}
		fmt.Fprintf(&out, "end_model: %dx%d %016x\n", m.Dim, m.K, h.Sum64())
	}
	return out.String()
}

// TestTestSplitReportOnly checks that the test split only reports: with
// every test label scrambled, RunContext over the runs.golden
// configurations and a Proposer stepped and evaluated must pick the
// same LFs, reach the same Table-2 statistics and token usage, and
// train bit-identical end models. Only EndMetric may move.
func TestTestSplitReportOnly(t *testing.T) {
	clean, scrambled := goldenLoader(t, nil), goldenLoader(t, scrambleTest)
	moved := 0
	check := func(name string, want, got *Result) {
		t.Helper()
		if w, g := decisions(want), decisions(got); w != g {
			t.Errorf("%s: scrambling test labels changed a decision:\n got:\n%s\nwant:\n%s", name, g, w)
		}
		if want.EndMetric != got.EndMetric {
			moved++
		}
	}

	scrambledRuns := goldenRuns()
	for i, r := range goldenRuns() {
		want, err := RunContext(context.Background(), clean(r.dataset, r.scale), r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		s := scrambledRuns[i]
		got, err := RunContext(context.Background(), scrambled(s.dataset, s.scale), s.cfg)
		if err != nil {
			t.Fatalf("%s (scrambled): %v", r.name, err)
		}
		check(r.name, want, got)
	}

	propose := func(d *dataset.Dataset) (string, *Result) {
		t.Helper()
		cfg := goldenConfig(VariantKATE, "seu")
		cfg.WrapModel = faultWrap(9)
		p, err := NewProposer(d, cfg, ProposerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var journal strings.Builder
		for it := 0; it < 8; it++ {
			st, err := p.Step(context.Background(), it)
			if err != nil {
				t.Fatal(err)
			}
			line, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&journal, "%s\n", line)
		}
		res, err := p.Evaluate(noSpan)
		if err != nil {
			t.Fatal(err)
		}
		return journal.String(), res
	}
	wantSteps, want := propose(clean("youtube", 0.25))
	gotSteps, got := propose(scrambled("youtube", 0.25))
	if wantSteps != gotSteps {
		t.Errorf("proposer: scrambling test labels changed the step journal:\n got:\n%s\nwant:\n%s", gotSteps, wantSteps)
	}
	check("proposer/kate/seu/faults", want, got)

	// The scramble must reach the reported metric, or the checks above
	// prove nothing.
	if moved == 0 {
		t.Error("no EndMetric moved under scrambled test labels; the scramble never reached the report")
	}
}
