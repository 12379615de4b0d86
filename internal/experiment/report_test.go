package experiment

import (
	"strings"
	"testing"
)

// syntheticMainGrid builds a grid with paper-shaped numbers so the shape
// checks can be exercised without running pipelines.
func syntheticMainGrid(good bool) *Grid {
	g := newGrid("t", MainMethods(), []string{"youtube", "sms"})
	set := func(m string, numLFs, lfAcc, lfCov, em, tokens float64) {
		for _, ds := range g.Datasets {
			g.Set(m, ds, Stats{
				NumLFs: numLFs, LFAcc: lfAcc, LFAccKnown: true, LFCov: lfCov,
				TotalCov: 0.7, EM: em, MetricName: "accuracy",
				PromptTokens: tokens, CostUSD: tokens / 1e6, Runs: 1,
			})
		}
	}
	set(MethodWrench, 19, 0.81, 0.24, 0.73, 0)
	set(MethodScriptorium, 19, 0.69, 0.72, 0.67, 2000)
	set(MethodPromptedLF, 19, 0.85, 0.31, 0.76, 30e6)
	if good {
		set(MethodBase, 108, 0.80, 0.02, 0.77, 40000)
		set(MethodCoT, 96, 0.79, 0.02, 0.75, 50000)
		set(MethodSC, 175, 0.79, 0.018, 0.76, 400000)
		set(MethodKATE, 203, 0.78, 0.011, 0.77, 420000)
	} else {
		// degenerate: tiny LF sets, cheaper PromptedLF — checks must fail
		set(MethodBase, 12, 0.60, 0.5, 0.55, 40e6)
		set(MethodCoT, 12, 0.60, 0.5, 0.55, 40e6)
		set(MethodSC, 10, 0.60, 0.5, 0.55, 40e6)
		set(MethodKATE, 12, 0.60, 0.5, 0.55, 40e6)
	}
	return g
}

func TestTable2ChecksPaperShapedGrid(t *testing.T) {
	for _, c := range Table2Checks(syntheticMainGrid(true)) {
		if !c.Pass {
			t.Errorf("check %q failed on paper-shaped grid: %s", c.Name, c.Detail)
		}
	}
	for _, c := range Figure34Checks(syntheticMainGrid(true)) {
		if !c.Pass {
			t.Errorf("figure check %q failed on paper-shaped grid: %s", c.Name, c.Detail)
		}
	}
}

func TestTable2ChecksDetectDegenerateGrid(t *testing.T) {
	failed := 0
	for _, c := range Table2Checks(syntheticMainGrid(false)) {
		if !c.Pass {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no check failed on the degenerate grid")
	}
	figFailed := 0
	for _, c := range Figure34Checks(syntheticMainGrid(false)) {
		if !c.Pass {
			figFailed++
		}
	}
	if figFailed == 0 {
		t.Error("no figure check failed on the degenerate grid")
	}
}

func TestAblationChecks(t *testing.T) {
	// Table 3 grid with the paper's ordering
	g3 := newGrid("t3", ablationTable(3).Rows, []string{"youtube"})
	for name, vals := range map[string][2]float64{
		"gpt-3.5":    {0.788, 0.765},
		"gpt-4":      {0.836, 0.780},
		"llama2-7b":  {0.722, 0.708},
		"llama2-13b": {0.712, 0.727},
		"llama2-70b": {0.777, 0.739},
	} {
		g3.Set(name, "youtube", Stats{LFAcc: vals[0], LFAccKnown: true, EM: vals[1], Runs: 1})
	}
	for _, c := range Table3Checks(g3) {
		if !c.Pass {
			t.Errorf("table 3 check %q failed: %s", c.Name, c.Detail)
		}
	}

	g4 := newGrid("t4", ablationTable(4).Rows, []string{"youtube"})
	g4.Set("random", "youtube", Stats{NumLFs: 175, LFAcc: 0.788, LFAccKnown: true, EM: 0.765})
	g4.Set("uncertain", "youtube", Stats{NumLFs: 173, LFAcc: 0.749, LFAccKnown: true, EM: 0.762})
	g4.Set("seu", "youtube", Stats{NumLFs: 71, LFAcc: 0.798, LFAccKnown: true, EM: 0.733})
	for _, c := range Table4Checks(g4) {
		if !c.Pass {
			t.Errorf("table 4 check %q failed: %s", c.Name, c.Detail)
		}
	}

	g5 := newGrid("t5", ablationTable(5).Rows, []string{"youtube"})
	g5.Set("all", "youtube", Stats{NumLFs: 175, LFAcc: 0.788, LFAccKnown: true, EM: 0.765})
	g5.Set("no accuracy", "youtube", Stats{NumLFs: 247, LFAcc: 0.693, LFAccKnown: true, EM: 0.679})
	g5.Set("no redundancy", "youtube", Stats{NumLFs: 236, LFAcc: 0.807, LFAccKnown: true, EM: 0.737})
	for _, c := range Table5Checks(g5) {
		if !c.Pass {
			t.Errorf("table 5 check %q failed: %s", c.Name, c.Detail)
		}
	}
}

func TestMarkdownReport(t *testing.T) {
	main := syntheticMainGrid(true)
	report := MarkdownReport(Options{Seeds: 5, Scale: 1}, main, nil, nil, nil)
	for _, want := range []string{
		"# EXPERIMENTS", "## Table 2", "Shape checks", "Figures 3 and 4", "✅",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// nil grids omit their sections
	if strings.Contains(report, "Table 3") {
		t.Error("nil LLM grid still rendered")
	}
}
