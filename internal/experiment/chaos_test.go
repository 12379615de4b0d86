package experiment

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
)

// chaosOptions is the shared grid configuration of the chaos tests:
// small enough to run under -race in CI, faulty enough that every run
// exercises retries, truncated responses and garbage completions.
func chaosOptions(reg *obs.Registry) Options {
	return Options{
		Seeds:               2,
		Scale:               0.05,
		Datasets:            []string{"youtube"},
		Iterations:          5,
		Workers:             4,
		MaxFailedIterations: core.UnlimitedFailures,
		Obs:                 obs.New(nil, reg, nil),
		Chaos: &ChaosConfig{
			Rates: llm.FaultRates{RateLimit: 0.15, Timeout: 0.10, Truncate: 0.10, Garbage: 0.05},
			Seed:  42,
		},
	}.normalized()
}

const chaosTitle = "chaos grid"

var chaosMethods = []string{MethodBase, MethodSC}

// chaosSweep runs the standard chaos grid with the given options.
func chaosSweep(ctx context.Context, o Options, run CellFunc) (*Grid, error) {
	if run == nil {
		run = runMethod
	}
	return Sweep(ctx, o, chaosTitle, chaosMethods, run)
}

// TestChaosGridResumeIdentical is the end-to-end fault-tolerance check:
// a grid driven entirely through the fault injector, checkpointed,
// interrupted (both by a torn checkpoint file and by real context
// cancellation mid-sweep), then resumed — and the resumed grid must
// render byte-identically to the uninterrupted one.
func TestChaosGridResumeIdentical(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// phase 1: uninterrupted chaos run, checkpointing as it goes
	regA := obs.NewRegistry()
	oA := chaosOptions(regA)
	oA.Checkpoint = filepath.Join(dir, "a.jsonl")
	gA, err := chaosSweep(ctx, oA, nil)
	if err != nil {
		t.Fatalf("uninterrupted chaos sweep: %v", err)
	}
	want := RenderGrid(gA)
	if n := regA.Counter("faults_injected_total", "").Value(); n == 0 {
		t.Fatal("chaos run injected no faults; the grid never exercised the injector")
	}
	if n := regA.Counter("llm_retries_total", "").Value(); n == 0 {
		t.Fatal("chaos run performed no retries; rate-limit/timeout faults were not absorbed")
	}

	checkpointed, err := LoadCheckpoint(oA.Checkpoint)
	if err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	wantCells := len(chaosMethods) * oA.Seeds
	if len(checkpointed) != wantCells {
		t.Fatalf("checkpoint holds %d cells, want %d", len(checkpointed), wantCells)
	}

	// phase 2: simulate a crash — keep only the first two records plus a
	// torn partial line, then resume from the damaged file
	data, err := os.ReadFile(oA.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	torn := lines[0] + lines[1] + `{"grid":"chaos grid","method":"DataScu`
	tornPath := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(tornPath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	regB := obs.NewRegistry()
	oB := chaosOptions(regB)
	oB.ResumeFrom = tornPath
	gB, err := chaosSweep(ctx, oB, nil)
	if err != nil {
		t.Fatalf("resumed chaos sweep: %v", err)
	}
	if got := RenderGrid(gB); got != want {
		t.Errorf("grid resumed from torn checkpoint differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if n := regB.Counter("grid_cells_resumed_total", "").Value(); n != 2 {
		t.Errorf("grid_cells_resumed_total = %v, want 2 (torn third record must be recomputed)", n)
	}

	// phase 3: a real interruption — cancel the sweep after two cells
	// have completed, then resume from the checkpoint it left behind
	regC := obs.NewRegistry()
	oC := chaosOptions(regC)
	oC.Workers = 1 // serialize so the cancellation point is deterministic
	oC.Checkpoint = filepath.Join(dir, "c.jsonl")
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	var calls atomic.Int64
	_, err = chaosSweep(ictx, oC, func(ctx context.Context, method string, d *dataset.Dataset, seed int, cfg core.Config) (*core.Result, error) {
		if calls.Add(1) > 2 {
			cancel()
			return nil, ctx.Err()
		}
		return runMethod(ctx, method, d, seed, cfg)
	})
	if err == nil {
		t.Fatal("interrupted sweep returned no error")
	}
	partial, err := LoadCheckpoint(oC.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) != 2 {
		t.Fatalf("interrupted checkpoint holds %d cells, want 2", len(partial))
	}

	regD := obs.NewRegistry()
	oD := chaosOptions(regD)
	oD.ResumeFrom = oC.Checkpoint
	oD.Checkpoint = filepath.Join(dir, "d.jsonl") // fresh file: restored cells written through
	gD, err := chaosSweep(ctx, oD, nil)
	if err != nil {
		t.Fatalf("sweep resumed after interruption: %v", err)
	}
	if got := RenderGrid(gD); got != want {
		t.Errorf("grid resumed after interruption differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if n := regD.Counter("grid_cells_resumed_total", "").Value(); n != 2 {
		t.Errorf("grid_cells_resumed_total = %v, want 2", n)
	}
	// the write-through checkpoint must now be complete
	full, err := LoadCheckpoint(oD.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != wantCells {
		t.Errorf("write-through checkpoint holds %d cells, want %d", len(full), wantCells)
	}
}

// TestChaosDeterministicAcrossWorkers asserts the chaos fault schedule
// is a function of cell coordinates, not scheduling: the same chaotic
// grid at 1 worker and at 4 renders identically.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		o := chaosOptions(obs.NewRegistry())
		o.Workers = workers
		g, err := chaosSweep(context.Background(), o, nil)
		if err != nil {
			t.Fatalf("chaos sweep with %d workers: %v", workers, err)
		}
		return RenderGrid(g)
	}
	if serial, pooled := render(1), render(4); serial != pooled {
		t.Errorf("chaos grid differs between 1 and 4 workers:\n--- serial ---\n%s\n--- pooled ---\n%s", serial, pooled)
	}
}

// TestLoadCheckpointTolerance covers the crash-artifact cases the
// loader must accept and the corruption it must reject.
func TestLoadCheckpointTolerance(t *testing.T) {
	dir := t.TempDir()

	if recs, err := LoadCheckpoint(filepath.Join(dir, "missing.jsonl")); err != nil || recs != nil {
		t.Errorf("missing file: got %v records, err %v; want nil, nil", recs, err)
	}

	good := `{"grid":"g","method":"m","dataset":"d","seed":1,"result":{"num_lfs":3}}` + "\n"
	tornPath := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(tornPath, []byte(good+`{"grid":"g","met`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadCheckpoint(tornPath)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].Result.NumLFs != 3 {
		t.Errorf("torn file: got %+v, want the one intact record", recs)
	}

	corruptPath := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corruptPath, []byte(`nonsense`+"\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(corruptPath); err == nil {
		t.Error("malformed line followed by more data must be an error")
	}
}
