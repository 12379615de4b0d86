package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
)

// quickOptions runs tiny sweeps so the test suite stays fast.
func quickOptions() Options {
	return Options{
		Seeds:      1,
		Scale:      0.08,
		Datasets:   []string{"youtube", "sms"},
		Iterations: 15,
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Seeds != 5 || o.Scale != 1 || o.Iterations != 50 || o.Model != "gpt-3.5" {
		t.Errorf("defaults = %+v", o)
	}
	if len(o.Datasets) != 6 || o.Datasets[5] != "spouse" {
		t.Errorf("default datasets = %v, want the paper's six", o.Datasets)
	}
	// above 1 grows every split (`datasculpt -scale 100`)
	if big := (Options{Scale: 7}).normalized(); big.Scale != 7 {
		t.Errorf("scale 7 normalized to %v", big.Scale)
	}
}

func TestMeanStats(t *testing.T) {
	rs := []*core.Result{
		{NumLFs: 10, LFAccuracy: 0.8, LFAccuracyKnown: true, LFCoverage: 0.02,
			TotalCoverage: 0.6, EndMetric: 0.9, PromptTokens: 100, CompletionTokens: 10,
			CostUSD: 0.5, MetricName: "accuracy"},
		{NumLFs: 20, LFAccuracy: 0.6, LFAccuracyKnown: true, LFCoverage: 0.04,
			TotalCoverage: 0.8, EndMetric: 0.7, PromptTokens: 200, CompletionTokens: 20,
			CostUSD: 1.5, MetricName: "accuracy"},
	}
	s := meanStats(rs)
	if s.NumLFs != 15 || s.LFAcc != 0.7 || !s.LFAccKnown || s.LFCov != 0.03 ||
		s.TotalCov != 0.7 || s.EM != 0.8 || s.TotalTokens() != 165 || s.CostUSD != 1.0 {
		t.Errorf("mean = %+v", s)
	}
	if s.Runs != 2 {
		t.Errorf("runs = %d", s.Runs)
	}
}

func TestMeanStatsUnknownAccuracy(t *testing.T) {
	rs := []*core.Result{
		{NumLFs: 4, MetricName: "F1"},
		{NumLFs: 6, LFAccuracy: 0.9, LFAccuracyKnown: true, MetricName: "F1"},
	}
	s := meanStats(rs)
	// the average is over the runs where accuracy is defined
	if !s.LFAccKnown || s.LFAcc != 0.9 {
		t.Errorf("accuracy aggregation = %+v", s)
	}
	if s.NumLFs != 5 {
		t.Errorf("numLFs = %v", s.NumLFs)
	}
	if st := meanStats(nil); st.Runs != 0 {
		t.Errorf("empty meanStats = %+v", st)
	}
}

func TestGridAvgSkipsUndefined(t *testing.T) {
	g := newGrid("t", []string{"m"}, []string{"a", "b"})
	g.Set("m", "a", Stats{LFAcc: 0.8, LFAccKnown: true})
	g.Set("m", "b", Stats{LFAccKnown: false}) // e.g. spouse
	avg, ok := g.Avg("m", MetricLFAcc)
	if !ok || avg != 0.8 {
		t.Errorf("avg = %v (%v), want 0.8 over the single defined cell", avg, ok)
	}
	if _, ok := g.Avg("missing", MetricLFAcc); ok {
		t.Error("avg over missing method defined")
	}
}

func TestRenderTable1(t *testing.T) {
	out, err := RenderTable1(Options{Scale: 0.05, Datasets: []string{"youtube"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "youtube") || !strings.Contains(out, "#Train") {
		t.Errorf("table 1 = %q", out)
	}
}

func TestMainResultsQuick(t *testing.T) {
	g, err := MainResultsContext(context.Background(), quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Methods) != 7 {
		t.Fatalf("methods = %v", g.Methods)
	}
	for _, m := range g.Methods {
		for _, ds := range []string{"youtube", "sms"} {
			s, ok := g.Get(m, ds)
			if !ok {
				t.Fatalf("missing cell %s/%s", m, ds)
			}
			if s.Runs != 1 {
				t.Errorf("%s/%s runs = %d", m, ds, s.Runs)
			}
			if s.NumLFs <= 0 {
				t.Errorf("%s/%s has no LFs", m, ds)
			}
			if s.EM < 0 || s.EM > 1 {
				t.Errorf("%s/%s EM = %v", m, ds, s.EM)
			}
		}
	}
	// cost shape: PromptedLF dwarfs every DataSculpt variant
	plf, _ := g.Get(MethodPromptedLF, "youtube")
	base, _ := g.Get(MethodBase, "youtube")
	if plf.TotalTokens() < 3*base.TotalTokens() {
		t.Errorf("promptedLF tokens %v vs base %v at tiny scale", plf.TotalTokens(), base.TotalTokens())
	}
	// WRENCH costs nothing
	wr, _ := g.Get(MethodWrench, "youtube")
	if wr.TotalTokens() != 0 || wr.CostUSD != 0 {
		t.Errorf("WRENCH usage = %v tokens $%v", wr.TotalTokens(), wr.CostUSD)
	}

	// renderers accept the grid
	table := RenderGrid(g)
	for _, want := range []string{"#LFs", "LF Acc.", "Total Cov.", "EM Acc/F1", "AVG", "DataSculpt-SC"} {
		if !strings.Contains(table, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	fig3 := RenderFigure3(g)
	if !strings.Contains(fig3, "tokens") || !strings.Contains(fig3, "#") {
		t.Errorf("figure 3 = %q", fig3)
	}
	fig4 := RenderFigure4(g)
	if !strings.Contains(fig4, "USD") {
		t.Errorf("figure 4 = %q", fig4)
	}
	cmp := RenderPaperComparison(g, PaperTable2)
	if !strings.Contains(cmp, "paper") || !strings.Contains(cmp, "ours") {
		t.Errorf("comparison = %q", cmp)
	}
}

func TestSamplerAblationQuick(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"youtube"}
	g, err := AblationContext(context.Background(), o, ablationTable(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ablationTable(4).Rows {
		if _, ok := g.Get(m, "youtube"); !ok {
			t.Errorf("missing sampler cell %s", m)
		}
	}
}

func TestFilterAblationQuick(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"youtube"}
	g, err := AblationContext(context.Background(), o, ablationTable(5))
	if err != nil {
		t.Fatal(err)
	}
	all, _ := g.Get("all", "youtube")
	noAcc, _ := g.Get("no accuracy", "youtube")
	if noAcc.NumLFs < all.NumLFs {
		t.Errorf("no-accuracy LFs %v < all-filters %v", noAcc.NumLFs, all.NumLFs)
	}
}

func TestLLMAblationQuick(t *testing.T) {
	o := quickOptions()
	o.Datasets = []string{"youtube"}
	g, err := AblationContext(context.Background(), o, ablationTable(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Methods) != 5 {
		t.Fatalf("models = %v", g.Methods)
	}
	g4, _ := g.Get("gpt-4", "youtube")
	g35, _ := g.Get("gpt-3.5", "youtube")
	// gpt-4 costs more per token; with similar token counts its dollar
	// cost must exceed gpt-3.5's
	if g4.CostUSD <= g35.CostUSD {
		t.Errorf("gpt-4 cost %v <= gpt-3.5 cost %v", g4.CostUSD, g35.CostUSD)
	}
}

// ablationTable returns the Ablations entry of the paper's table n.
func ablationTable(n int) Ablation {
	for _, a := range Ablations {
		if a.Table == n {
			return a
		}
	}
	panic(fmt.Sprintf("no ablation for table %d", n))
}

func TestPaperAveragesLookup(t *testing.T) {
	p := PaperTable2[MethodBase]
	if v, ok := p.Value("#LFs"); !ok || v != 108.2 {
		t.Errorf("paper #LFs = %v (%v)", v, ok)
	}
	if _, ok := p.Value("nonexistent"); ok {
		t.Error("unknown metric resolved")
	}
	// every main method has a paper reference
	for _, m := range MainMethods() {
		if _, ok := PaperTable2[m]; !ok {
			t.Errorf("no paper averages for %s", m)
		}
	}
}

func TestRunMethodUnknown(t *testing.T) {
	o := quickOptions().normalized()
	g, err := Sweep(context.Background(), o, "t", []string{"mystery"}, runMethod)
	if err == nil {
		t.Errorf("unknown method produced grid %v", g)
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	// The tentpole guarantee: the grid is byte-identical at any worker
	// count because every cell owns its RNGs and results commit by cell
	// index, not completion order.
	serial := quickOptions()
	serial.Seeds = 2
	serial.Workers = 1
	parallel := serial
	parallel.Workers = 8

	gs, err := MainResultsContext(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := MainResultsContext(context.Background(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs.Cells, gp.Cells) {
		t.Errorf("parallel grid differs from serial:\nserial:   %+v\nparallel: %+v", gs.Cells, gp.Cells)
	}
}

func TestSweepFailFast(t *testing.T) {
	o := quickOptions().normalized()
	o.Workers = 4
	boom := errors.New("boom")
	_, err := Sweep(context.Background(), o, "t", []string{"a", "b"},
		func(ctx context.Context, method string, d *dataset.Dataset, seed int, cfg core.Config) (*core.Result, error) {
			if method == "b" && d.Name == "sms" {
				return nil, boom
			}
			return &core.Result{Method: method, NumLFs: 1}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want wrapped boom", err)
	}
	if want := "experiment b/sms seed 1: boom"; err.Error() != want {
		t.Errorf("error = %q, want %q", err.Error(), want)
	}
}

func TestSweepKeepGoing(t *testing.T) {
	o := quickOptions().normalized()
	o.Workers = 4
	o.Seeds = 2
	o.KeepGoing = true
	boom := errors.New("boom")
	g, err := Sweep(context.Background(), o, "t", []string{"a", "b"},
		func(ctx context.Context, method string, d *dataset.Dataset, seed int, cfg core.Config) (*core.Result, error) {
			if method == "b" && d.Name == "sms" && seed == 2 {
				return nil, boom
			}
			return &core.Result{Method: method, NumLFs: 3, Artifacts: &core.Artifacts{}}, nil
		})
	if err != nil {
		t.Fatalf("KeepGoing surfaced error: %v", err)
	}
	if g.FailedCells() != 1 {
		t.Errorf("failed cells = %d, want 1", g.FailedCells())
	}
	if cellErr := g.Err("b", "sms"); !errors.Is(cellErr, boom) {
		t.Errorf("cell error = %v", cellErr)
	}
	// the broken cell still averages over its surviving seed
	s, ok := g.Get("b", "sms")
	if !ok || s.Runs != 1 {
		t.Errorf("partial cell = %+v (%v), want 1 surviving run", s, ok)
	}
	// untouched cells are complete
	if s, _ := g.Get("a", "youtube"); s.Runs != 2 {
		t.Errorf("healthy cell runs = %d, want 2", s.Runs)
	}
	// per-seed results keep only their statistics; the failed seed is nil
	if seeds := g.Seeds["b"]["sms"]; len(seeds) != 2 || seeds[0] == nil || seeds[1] != nil {
		t.Fatalf("per-seed results = %v, want seed 1 only", seeds)
	}
	if r := g.Seeds["b"]["sms"][0]; r.NumLFs != 3 || r.Artifacts != nil {
		t.Errorf("per-seed result = %+v, want statistics without artifacts", r)
	}
}

func TestSweepContextCanceled(t *testing.T) {
	o := quickOptions().normalized()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, o, "t", []string{"a"},
		func(ctx context.Context, method string, d *dataset.Dataset, seed int, cfg core.Config) (*core.Result, error) {
			return nil, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
}

func TestSweepWorkerCountIrrelevantForErrors(t *testing.T) {
	// whatever the worker count, fail-fast reports a deterministic error
	// once all in-flight cells drain
	for _, workers := range []int{1, 2, 8} {
		o := quickOptions().normalized()
		o.Workers = workers
		_, err := Sweep(context.Background(), o, "t", []string{"x"},
			func(ctx context.Context, method string, d *dataset.Dataset, seed int, cfg core.Config) (*core.Result, error) {
				return nil, fmt.Errorf("always")
			})
		if err == nil {
			t.Fatalf("workers=%d: sweep swallowed the error", workers)
		}
	}
}
