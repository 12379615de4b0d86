// Command datagen materializes the synthetic benchmark datasets to disk
// in the WRENCH-style JSON layout that dataset.LoadDir reads (and other
// PWS tooling can consume):
//
//	datagen -out ./data                       # all seven datasets, full size
//	datagen -out ./data -datasets youtube,sms -scale 0.2 -seed 7
//
// The seven are the paper's six plus trec. Each dataset lands in
// <out>/<name>/ with meta.json plus train/valid/test.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"datasculpt/internal/dataset"
)

func main() {
	out := flag.String("out", "data", "output directory")
	names := flag.String("datasets", "", "comma-separated subset (default: all seven, the paper's six plus trec)")
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.Float64("scale", 1.0, "dataset scale: (0,1) shrinks, 1 is Table-1 size, >1 grows (e.g. 100 for the out-of-core benchmark)")
	flag.Parse()

	list := dataset.Names()
	if *names != "" {
		list = strings.Split(*names, ",")
	}
	for _, name := range list {
		d, err := dataset.Load(name, *seed, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		dir := filepath.Join(*out, name)
		if err := d.SaveDir(dir); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d/%d/%d examples -> %s\n",
			name, len(d.Train), len(d.Valid), len(d.Test), dir)
	}
}
