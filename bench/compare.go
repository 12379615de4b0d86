package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
)

// outputsLine is the line a run prints before its result: the output
// signature of each untraced operation, in order.
type outputsLine struct {
	Outputs []string `json:"outputs"`
}

// runRecord is one child run in a result set.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	WallS    float64 `json:"wall_s"`
	outputsLine
	result
}

// resultSet is what -out writes and -compare reads: every run of every
// workload, with the machine it ran on.
type resultSet struct {
	GoVersion  string      `json:"go_version"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seconds    float64     `json:"seconds"`
	Runs       []runRecord `json:"runs"`
}

func newSet(seconds float64) *resultSet {
	return &resultSet{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: seconds}
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// values returns a metric's values over a workload's runs at one trace
// setting.
func (s *resultSet) values(workload, name string, trace int) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// summary prints each workload's medians with their spread (quartile
// distance over median) beside the bound, and traced per-layer medians.
func (s *resultSet) summary(w io.Writer) {
	fmt.Fprintf(w, "%s, nproc %d, GOMAXPROCS %d, %gs per run\n", s.GoVersion, s.NProc, s.GOMAXPROCS, s.Seconds)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, d := range endToEnd {
			if v := s.values(wl.name, d.Name, 0); len(v) > 0 {
				fmt.Fprintf(w, "  %-16s median %12.6g %-8s n=%-3d spread %6.2f%%  bound %4.0f%%\n",
					d.Name, median(v), d.Unit, len(v), 100*spread(v), 100*d.Bound)
			}
		}
		for _, d := range perLayer {
			if v := s.values(wl.name, d.Name, 1); len(v) > 0 {
				fmt.Fprintf(w, "  %-32s %12.6g %s\n", d.Name, median(v), d.Unit)
			}
		}
	}
}

// compareSets prints, for each workload and end-to-end metric, both
// medians with their spreads, the change from a to b, the bound and a
// verdict, and then whether the two sets' outputs agree seed by seed.
// It fails when a metric differs or is unresolved, an output differs, or
// any run failed.
//
// A metric is unresolved when either set's spread exceeds its bound, so
// that a change up to the bound cannot be told from noise; the one
// exception is a set b whose every run beats every run of a.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	bad := 0
	for _, s := range []*resultSet{a, b} {
		for _, r := range s.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "FAILED run: %s seed %d trace %d: %d of %d operations failed\n",
					r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
				bad++
			}
		}
	}
	fmt.Fprintf(w, "%-26s %-15s %11s %8s %11s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "spread", "median b", "spread", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.Name, 0), b.values(wl.name, d.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-26s %-15s missing (%d and %d runs)\n", wl.name, d.Name, len(va), len(vb))
				bad++
				continue
			}
			v := verdict(va, vb, d)
			if v != "agree" {
				bad++
			}
			fmt.Fprintf(w, "%-26s %-15s %11.5g %7.2f%% %11.5g %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl.name, d.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*change(va, vb), 100*d.Bound, v)
		}
	}
	fmt.Fprintf(w, "\noutputs, seed by seed (no bound: LF set, test metric and tokens; growth outcomes)\n")
	for _, wl := range workloads {
		seeds, diffs := compareOutputs(a, b, wl.name)
		verdict := "same"
		if seeds == 0 || len(diffs) > 0 {
			verdict = "differs"
			bad++
		}
		fmt.Fprintf(w, "%-26s %2d seeds in both sets  %s\n", wl.name, seeds, verdict)
		for _, d := range diffs {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons differ, are unresolved or missing, or runs failed", bad)
	}
	return nil
}

// change is the median of b relative to the median of a.
func change(va, vb []float64) float64 {
	ma := median(va)
	if ma == 0 {
		return 0
	}
	return median(vb)/ma - 1
}

// verdict is "agree" when the medians are within d's bound of each
// other and both spreads within it too, "unresolved" when a spread is
// wider than the bound (unless every run of b beats every run of a), and
// "differs" otherwise.
func verdict(va, vb []float64, d metricDef) string {
	switch {
	case (spread(va) > d.Bound || spread(vb) > d.Bound) && !beatsAll(vb, va, d.Better):
		return "unresolved"
	case math.Abs(change(va, vb)) > d.Bound:
		return "differs"
	}
	return "agree"
}

// beatsAll reports whether every value of b is better than every value
// of a.
func beatsAll(b, a []float64, better string) bool {
	if better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compareOutputs checks, for every seed both sets ran untraced, that the
// runs produced the same outputs operation by operation, as far as both
// got: each pipeline run's signature, the served bundle's, or each growth
// cycle's outcome. It returns how many seeds it compared and each
// difference.
func compareOutputs(a, b *resultSet, workload string) (seeds int, diffs []string) {
	other := make(map[int64][]string)
	for _, r := range b.Runs {
		if r.Workload == workload && r.Trace == 0 {
			other[r.Seed] = r.Outputs
		}
	}
	for _, r := range a.Runs {
		ob, ok := other[r.Seed]
		if r.Workload != workload || r.Trace != 0 || !ok {
			continue
		}
		seeds++
		oa := r.Outputs
		n := min(len(oa), len(ob))
		if n == 0 {
			diffs = append(diffs, fmt.Sprintf("seed %d: no outputs (%d and %d)", r.Seed, len(oa), len(ob)))
			continue
		}
		for i := 0; i < n; i++ {
			if oa[i] != ob[i] {
				diffs = append(diffs, fmt.Sprintf("seed %d, output %d: %s vs %s", r.Seed, i, oa[i], ob[i]))
				break
			}
		}
	}
	return seeds, diffs
}
