// Custom datasets and artifacts: export a corpus to the WRENCH-style
// JSON layout, load it back, evaluate a hand-written LF set on it, and
// persist the LF set — the workflow for applying the library to your own
// data.
//
//	go run ./examples/custom_dataset
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"datasculpt"
)

func main() {
	// 1. Materialize a corpus to disk. For your own data, write the same
	// layout (meta.json + train/valid/test.json) from any source. Each
	// run gets its own directory, left in place for inspection.
	dir, err := os.MkdirTemp("", "datasculpt-custom-")
	if err != nil {
		log.Fatal(err)
	}
	src, err := datasculpt.LoadDataset("sms", 11, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	if err := datasculpt.SaveDatasetDir(src, dir); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %s to %s\n", src.Name, dir)

	// 2. Load it back the way a downstream user would.
	d, err := datasculpt.LoadDatasetDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d/%d/%d examples, classes %v\n",
		len(d.Train), len(d.Valid), len(d.Test), d.ClassNames)

	// 3. Hand-write a few LFs and evaluate them with the full PWS stack
	// (label model + end model). Loaded datasets carry no simulator
	// knowledge, so this is the "bring your own LFs / bring your own LLM
	// client" path — see datasculpt.NewOpenAI wrapped in
	// datasculpt.NewRetry for the latter.
	var lfs []datasculpt.LabelFunction
	for _, spec := range []struct {
		phrase string
		class  int
	}{
		{"winner", 1}, {"prize", 1}, {"claim", 1}, {"urgent", 1},
		{"free entry", 1}, {"tonight", 0}, {"see you", 0}, {"lunch", 0},
	} {
		f, err := datasculpt.NewKeywordLF(spec.phrase, spec.class)
		if err != nil {
			log.Fatal(err)
		}
		lfs = append(lfs, f)
	}
	cfg := datasculpt.DefaultConfig(datasculpt.VariantBase)
	cfg.Seed = 11
	res, err := datasculpt.EvaluateLFSet(d, lfs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hand-written LFs: total coverage %.3f, end-model %s %.3f\n",
		res.TotalCoverage, res.MetricName, res.EndMetric)

	// 4. Inspect the set with the Snorkel-style analysis...
	sums := datasculpt.AnalyzeLFs(d.Train, lfs, nil)
	fmt.Println("\nper-LF coverage on the (unlabeled) train split:")
	for _, s := range sums {
		fmt.Printf("  %-24s cov=%.4f overlap=%.4f conflict=%.4f\n",
			s.Name, s.Coverage, s.Overlap, s.Conflict)
	}

	// 5. ...and persist it: the LF set is the shippable artifact.
	data, err := datasculpt.MarshalLFs(lfs)
	if err != nil {
		log.Fatal(err)
	}
	out := filepath.Join(dir, "lfs.json")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote the LF set to %s (%d bytes)\n", out, len(data))
}
