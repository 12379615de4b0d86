package textproc_test

import (
	"testing"

	"datasculpt/internal/dataset"
	"datasculpt/internal/textproc"
)

// ingestCorpora are the train splits the ingest benchmarks read: a tenth
// of their Table-1 size, as the pipeline and serving benchmarks train
// on. Yelp has long reviews, Agnews many mid-length articles, Youtube
// short comments.
var ingestCorpora = []string{"yelp", "agnews", "youtube"}

// Sinks keep the compiler from dropping the measured calls.
var (
	tokensSink  []string
	vectorsSink []*textproc.SparseVector
)

func trainSplit(b *testing.B, name string) []*dataset.Example {
	b.Helper()
	d, err := dataset.Load(name, 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	return d.Train
}

// BenchmarkTokenize tokenizes every text of a train split per iteration.
func BenchmarkTokenize(b *testing.B) {
	for _, name := range ingestCorpora {
		texts := dataset.Texts(trainSplit(b, name))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, text := range texts {
					tokensSink = textproc.Tokenize(text)
				}
			}
		})
	}
}

// BenchmarkTransformAll featurizes every document of a train split per
// iteration, on one worker, with a featurizer fitted on that split.
func BenchmarkTransformAll(b *testing.B) {
	for _, name := range ingestCorpora {
		corpus := dataset.FeatureCorpus(trainSplit(b, name))
		f := textproc.NewFeaturizer(textproc.DefaultFeatureDim)
		if err := f.Fit(corpus); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vectorsSink = f.TransformAll(corpus)
			}
		})
	}
}
