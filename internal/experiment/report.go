package experiment

import (
	"fmt"
	"strings"
)

// This file renders EXPERIMENTS.md: a markdown report that places every
// reproduced table and figure next to the paper's published averages and
// evaluates the *shape checks* of DESIGN.md §4 programmatically — the
// orderings and ratios that must hold for the reproduction to count, even
// though absolute numbers differ across substrates.

// ShapeCheck is one programmatic assertion about a result grid.
type ShapeCheck struct {
	// Name states the claim being checked, in the paper's terms.
	Name string
	// Pass reports whether the reproduction satisfies it.
	Pass bool
	// Detail carries the numbers behind the verdict.
	Detail string
}

func check(name string, pass bool, format string, args ...any) ShapeCheck {
	return ShapeCheck{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}

// avg is a must-style accessor for grid averages (0 when undefined).
func avg(g *Grid, method string, metric func(Stats) (float64, bool)) float64 {
	v, _ := g.Avg(method, metric)
	return v
}

// Table2Checks evaluates the main-results shape targets.
func Table2Checks(g *Grid) []ShapeCheck {
	var out []ShapeCheck

	// DataSculpt produces a significantly larger LF set than baselines.
	minDS, maxBase := 1e18, 0.0
	for _, m := range []string{MethodBase, MethodCoT, MethodSC, MethodKATE} {
		if v := avg(g, m, MetricNumLFs); v < minDS {
			minDS = v
		}
	}
	for _, m := range []string{MethodWrench, MethodScriptorium, MethodPromptedLF} {
		if v := avg(g, m, MetricNumLFs); v > maxBase {
			maxBase = v
		}
	}
	out = append(out, check(
		"DataSculpt generates a much larger LF set than every baseline",
		minDS > 1.5*maxBase,
		"min DataSculpt #LFs %.1f vs max baseline %.1f", minDS, maxBase))

	// Self-consistency enlarges the LF set over Base.
	out = append(out, check(
		"Self-consistency (SC) yields more LFs than Base",
		avg(g, MethodSC, MetricNumLFs) > avg(g, MethodBase, MetricNumLFs),
		"SC %.1f vs Base %.1f",
		avg(g, MethodSC, MetricNumLFs), avg(g, MethodBase, MetricNumLFs)))

	// Per-LF coverage: DataSculpt's single-keyword LFs are the narrowest.
	dsCov := avg(g, MethodBase, MetricLFCov)
	out = append(out, check(
		"DataSculpt has the lowest per-LF coverage (single-keyword LFs)",
		dsCov < avg(g, MethodWrench, MetricLFCov) &&
			dsCov < avg(g, MethodScriptorium, MetricLFCov) &&
			dsCov < avg(g, MethodPromptedLF, MetricLFCov),
		"DataSculpt %.4f vs WRENCH %.4f / ScriptoriumWS %.4f / PromptedLF %.4f",
		dsCov, avg(g, MethodWrench, MetricLFCov),
		avg(g, MethodScriptorium, MetricLFCov), avg(g, MethodPromptedLF, MetricLFCov)))

	// LF accuracy: DataSculpt above ScriptoriumWS (paper: +10.9 points).
	out = append(out, check(
		"DataSculpt LF accuracy exceeds ScriptoriumWS",
		avg(g, MethodBase, MetricLFAcc) > avg(g, MethodScriptorium, MetricLFAcc)+0.05,
		"Base %.3f vs ScriptoriumWS %.3f",
		avg(g, MethodBase, MetricLFAcc), avg(g, MethodScriptorium, MetricLFAcc)))

	// End model: DataSculpt-Base beats ScriptoriumWS on every dataset.
	allBeat := true
	var detail []string
	for _, ds := range g.Datasets {
		b, _ := g.Get(MethodBase, ds)
		s, _ := g.Get(MethodScriptorium, ds)
		if b.EM <= s.EM {
			allBeat = false
		}
		detail = append(detail, fmt.Sprintf("%s %.3f/%.3f", ds, b.EM, s.EM))
	}
	out = append(out, check(
		"DataSculpt-Base outperforms ScriptoriumWS on every dataset (EM)",
		allBeat, "base/scriptorium: %s", strings.Join(detail, ", ")))

	// End model: Base within a few points of PromptedLF's average despite
	// the cost gap (paper: +0.9 in DataSculpt's favour).
	diff := avg(g, MethodBase, MetricEM) - avg(g, MethodPromptedLF, MetricEM)
	out = append(out, check(
		"DataSculpt-Base rivals PromptedLF's end-model average (within 5 points)",
		diff > -0.05,
		"Base %.3f vs PromptedLF %.3f (diff %+.3f)",
		avg(g, MethodBase, MetricEM), avg(g, MethodPromptedLF, MetricEM), diff))

	return out
}

// Figure34Checks evaluates the cost-analysis shape targets.
func Figure34Checks(g *Grid) []ShapeCheck {
	var out []ShapeCheck
	baseTokens, plfTokens := 0.0, 0.0
	baseCost, plfCost := 0.0, 0.0
	for _, ds := range g.Datasets {
		if s, ok := g.Get(MethodBase, ds); ok {
			baseTokens += s.TotalTokens()
			baseCost += s.CostUSD
		}
		if s, ok := g.Get(MethodPromptedLF, ds); ok {
			plfTokens += s.TotalTokens()
			plfCost += s.CostUSD
		}
	}
	ratio := 0.0
	if baseTokens > 0 {
		ratio = plfTokens / baseTokens
	}
	out = append(out, check(
		"PromptedLF consumes orders of magnitude more tokens than DataSculpt-Base",
		ratio >= 100,
		"PromptedLF %.0f vs Base %.0f tokens (%.0fx; paper: 170M vs 39k ≈ 4400x)",
		plfTokens, baseTokens, ratio))
	costRatio := 0.0
	if baseCost > 0 {
		costRatio = plfCost / baseCost
	}
	out = append(out, check(
		"PromptedLF costs orders of magnitude more dollars",
		costRatio >= 100,
		"PromptedLF $%.2f vs Base $%.4f (%.0fx; paper: >$250 vs ~$0.06)",
		plfCost, baseCost, costRatio))
	return out
}

// Table3Checks evaluates the LLM-ablation shape targets.
func Table3Checks(g *Grid) []ShapeCheck {
	var out []ShapeCheck
	out = append(out, check(
		"GPT-4 achieves the best LF accuracy",
		avg(g, "gpt-4", MetricLFAcc) >= avg(g, "gpt-3.5", MetricLFAcc) &&
			avg(g, "gpt-4", MetricLFAcc) >= avg(g, "llama2-70b", MetricLFAcc),
		"gpt-4 %.3f, gpt-3.5 %.3f, llama2-70b %.3f",
		avg(g, "gpt-4", MetricLFAcc), avg(g, "gpt-3.5", MetricLFAcc), avg(g, "llama2-70b", MetricLFAcc)))
	out = append(out, check(
		"The small Llama tiers trail the top tiers in LF accuracy",
		avg(g, "llama2-7b", MetricLFAcc) < avg(g, "gpt-4", MetricLFAcc) &&
			avg(g, "llama2-13b", MetricLFAcc) < avg(g, "gpt-4", MetricLFAcc),
		"llama2-7b %.3f, llama2-13b %.3f vs gpt-4 %.3f",
		avg(g, "llama2-7b", MetricLFAcc), avg(g, "llama2-13b", MetricLFAcc), avg(g, "gpt-4", MetricLFAcc)))
	out = append(out, check(
		"GPT-4 end-model average leads GPT-3.5 (paper: +1.5 points)",
		avg(g, "gpt-4", MetricEM) >= avg(g, "gpt-3.5", MetricEM)-0.01,
		"gpt-4 %.3f vs gpt-3.5 %.3f", avg(g, "gpt-4", MetricEM), avg(g, "gpt-3.5", MetricEM)))
	return out
}

// Table4Checks evaluates the sampler-ablation shape targets.
func Table4Checks(g *Grid) []ShapeCheck {
	var out []ShapeCheck
	out = append(out, check(
		"SEU produces the smallest LF set (redundant selections get filtered)",
		avg(g, "seu", MetricNumLFs) < avg(g, "random", MetricNumLFs),
		"seu %.1f vs random %.1f", avg(g, "seu", MetricNumLFs), avg(g, "random", MetricNumLFs)))
	out = append(out, check(
		"Uncertainty sampling has the lowest LF accuracy (hard instances confuse the LLM)",
		avg(g, "uncertain", MetricLFAcc) <= avg(g, "random", MetricLFAcc) &&
			avg(g, "uncertain", MetricLFAcc) <= avg(g, "seu", MetricLFAcc),
		"uncertain %.3f vs random %.3f, seu %.3f",
		avg(g, "uncertain", MetricLFAcc), avg(g, "random", MetricLFAcc), avg(g, "seu", MetricLFAcc)))
	out = append(out, check(
		"Random sampling gives the best end-model average (paper takeaway T3)",
		avg(g, "random", MetricEM) >= avg(g, "uncertain", MetricEM)-0.01 &&
			avg(g, "random", MetricEM) >= avg(g, "seu", MetricEM)-0.01,
		"random %.3f, uncertain %.3f, seu %.3f",
		avg(g, "random", MetricEM), avg(g, "uncertain", MetricEM), avg(g, "seu", MetricEM)))
	return out
}

// Table5Checks evaluates the filter-ablation shape targets.
func Table5Checks(g *Grid) []ShapeCheck {
	var out []ShapeCheck
	out = append(out, check(
		"Removing any filter grows the LF set",
		avg(g, "no accuracy", MetricNumLFs) > avg(g, "all", MetricNumLFs) &&
			avg(g, "no redundancy", MetricNumLFs) > avg(g, "all", MetricNumLFs),
		"all %.1f, no-accuracy %.1f, no-redundancy %.1f",
		avg(g, "all", MetricNumLFs), avg(g, "no accuracy", MetricNumLFs), avg(g, "no redundancy", MetricNumLFs)))
	out = append(out, check(
		"Removing the accuracy filter lowers LF accuracy",
		avg(g, "no accuracy", MetricLFAcc) < avg(g, "all", MetricLFAcc),
		"all %.3f vs no-accuracy %.3f",
		avg(g, "all", MetricLFAcc), avg(g, "no accuracy", MetricLFAcc)))
	out = append(out, check(
		"Removing the accuracy filter hurts the end model",
		avg(g, "no accuracy", MetricEM) < avg(g, "all", MetricEM),
		"all %.3f vs no-accuracy %.3f",
		avg(g, "all", MetricEM), avg(g, "no accuracy", MetricEM)))
	out = append(out, check(
		"The redundancy filter's end-model effect is small/dataset-dependent",
		abs(avg(g, "no redundancy", MetricEM)-avg(g, "all", MetricEM)) < 0.06,
		"all %.3f vs no-redundancy %.3f",
		avg(g, "all", MetricEM), avg(g, "no redundancy", MetricEM)))
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// renderChecks renders a markdown check list.
func renderChecks(checks []ShapeCheck) string {
	var b strings.Builder
	for _, c := range checks {
		mark := "✅"
		if !c.Pass {
			mark = "❌"
		}
		fmt.Fprintf(&b, "- %s %s — %s\n", mark, c.Name, c.Detail)
	}
	return b.String()
}

// MarkdownReport renders the full EXPERIMENTS.md body from the main
// grid and the ablation grids, where ablations[i] is the grid of
// Ablations[i]. A nil or missing grid omits its section.
func MarkdownReport(o Options, main *Grid, ablations ...*Grid) string {
	o = o.normalized()
	var b strings.Builder
	b.WriteString("# EXPERIMENTS: paper vs. reproduction\n\n")
	fmt.Fprintf(&b, "Protocol: %d seeds, dataset scale %.2f, %d query iterations, default model %s.\n",
		o.Seeds, o.Scale, o.Iterations, o.Model)
	b.WriteString(`
Generated by ` + "`cmd/benchtab -all -markdown`" + `. Absolute numbers differ
from the paper because every external dependency (LLM APIs, BERT, the
WRENCH corpora) is replaced by the synthetic substrate documented in
DESIGN.md §2; the reproduction targets are the *shapes* — orderings,
ratios and trade-offs — which the check lists below evaluate
programmatically.

`)
	if main != nil {
		b.WriteString("## Table 2 — main comparison\n\n```\n")
		b.WriteString(RenderGrid(main))
		b.WriteString("```\n\nPaper vs. ours (AVG):\n\n```\n")
		b.WriteString(RenderPaperComparison(main, PaperTable2))
		b.WriteString("```\n\nShape checks:\n\n")
		b.WriteString(renderChecks(Table2Checks(main)))
		b.WriteString("\n## Figures 3 and 4 — token usage and API cost\n\n```\n")
		b.WriteString(RenderFigure3(main))
		b.WriteString("\n")
		b.WriteString(RenderFigure4(main))
		b.WriteString("```\n\nShape checks:\n\n")
		b.WriteString(renderChecks(Figure34Checks(main)))
	}
	for i, g := range ablations {
		if g == nil {
			continue
		}
		a := Ablations[i]
		fmt.Fprintf(&b, "\n## Table %d — %s (DataSculpt-SC)\n\n```\n", a.Table, a.section)
		b.WriteString(RenderGrid(g))
		b.WriteString("```\n\nPaper vs. ours (AVG):\n\n```\n")
		b.WriteString(RenderPaperComparison(g, a.Paper))
		b.WriteString("```\n\nShape checks:\n\n")
		b.WriteString(renderChecks(a.Checks(g)))
	}
	return b.String()
}
