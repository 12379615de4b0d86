// Command datagen materializes the synthetic benchmark datasets to disk
// in the WRENCH-style JSON layout that dataset.LoadDir reads (and other
// PWS tooling can consume), or as streamable JSONL:
//
//	datagen -out ./data                       # all six datasets, full size
//	datagen -out ./data -datasets youtube,sms -scale 0.2 -seed 7
//	datagen -out ./data -datasets youtube -scale 100 -format jsonl
//
// With -format json each dataset lands in <out>/<name>/ with meta.json
// plus train/valid/test.json (map layout, loaded whole). With -format
// jsonl the splits are written as train/valid/test.jsonl — one record per
// line in id order — which dataset.OpenJSONL streams without
// materializing the corpus; use this for -scale factors above 1.
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
	names := flag.String("datasets", "", "comma-separated subset (default: all six)")
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.Float64("scale", 1.0, "dataset scale: (0,1) shrinks, 1 is Table-1 size, >1 grows (e.g. 100 for the out-of-core benchmark)")
	format := flag.String("format", "json", "on-disk layout: json (WRENCH map files) or jsonl (streamable, id-ordered)")
	flag.Parse()

	if *format != "json" && *format != "jsonl" {
		fmt.Fprintf(os.Stderr, "datagen: unknown -format %q (want json or jsonl)\n", *format)
		os.Exit(1)
	}
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
		if *format == "jsonl" {
			err = d.SaveDirJSONL(dir)
		} else {
			err = d.SaveDir(dir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d/%d/%d examples -> %s\n",
			name, len(d.Train), len(d.Valid), len(d.Test), dir)
	}
}
