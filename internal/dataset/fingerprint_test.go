package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates testdata/corpus_fingerprint.golden:
// go test ./internal/dataset/ -run Fingerprint -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// fingerprintSeeds and fingerprintScale fix the corpora the golden
// covers: every registered dataset at two seeds.
var fingerprintSeeds = []int64{1, 7}

const fingerprintScale = 0.1

// corpusFingerprint hashes every field a generator sets on every example
// of every split, in split order. Strings are length-prefixed so field
// boundaries cannot shift without changing the digest.
func corpusFingerprint(d *Dataset) string {
	h := sha256.New()
	for _, split := range [][]*Example{d.Train, d.Valid, d.Test} {
		writeInt(h, len(split))
		for _, e := range split {
			writeInt(h, e.ID)
			writeString(h, e.Text)
			writeInt(h, e.Label)
			writeInt(h, len(e.Tokens))
			for _, tok := range e.Tokens {
				writeString(h, tok)
			}
			writeInt(h, e.E1Pos)
			writeInt(h, e.E2Pos)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.Write(b[:])
}

func writeString(h hash.Hash, s string) {
	writeInt(h, len(s))
	h.Write([]byte(s))
}

// TestCorpusFingerprintGolden pins the generated corpora byte for byte:
// any change to the generators' rng draw order or token layout shows up
// as a changed digest.
func TestCorpusFingerprintGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range Names() {
		for _, seed := range fingerprintSeeds {
			d, err := Load(name, seed, fingerprintScale)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s seed=%d scale=%g %s\n", name, seed, fingerprintScale, corpusFingerprint(d))
		}
	}
	golden := filepath.Join("testdata", "corpus_fingerprint.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("corpora drifted from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

// BenchmarkLoad measures generating one tenth-size Agnews corpus, the
// corpus the pipeline-agnews-uncertain workload builds per run:
// go test ./internal/dataset/ -run XXX -bench Load -benchmem
func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Load("agnews", int64(i+1), fingerprintScale); err != nil {
			b.Fatal(err)
		}
	}
}
