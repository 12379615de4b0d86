// Command bench is DataSculpt's benchmark: five seeded workloads over the
// pipeline, the serving daemon and the growth loop, each printing its
// end-to-end metrics, or with -trace 1 the per-layer split of a traced
// run, and checking that every output is correct.
//
//	bash bench/run.sh -workload serve-bulk -seed 3 -seconds 12 -trace 0
//	bash bench/run.sh -runs 10 -out set.json        # every workload, 10 seeds
//	bash bench/run.sh -compare set1.json set2.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics; the line before it lists what the
// operations produced. Reports go to standard error. A run whose
// outputs fail verification exits 1. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"datasculpt/internal/obs"
)

var errIncorrect = errors.New("outputs failed verification")

func main() {
	// Load and serving share this process: never more threads than cores.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and traffic")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "1: print the per-layer split of a traced run instead of the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "write the traced run's spans here as JSONL")
	runs := fs.Int("runs", 1, "with every workload: untraced runs per workload, at seeds seed, seed+1, ... (then the traced run)")
	out := fs.String("out", "", "with every workload: write the set of results here")
	compare := fs.Bool("compare", false, "compare two result sets given as arguments")
	spec := fs.Bool("spec", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	window := time.Duration(*seconds * float64(time.Second))
	switch {
	case *spec:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(specFile())
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareSets(stdout, fs.Arg(0), fs.Arg(1))
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		return runOne(ctx, stdout, stderr, w, *seed, window, *trace == 1, *traceOut)
	default:
		if *runs < 1 {
			return errors.New("-runs must be at least 1")
		}
		return runAll(ctx, stdout, stderr, *seed, *seconds, *runs, *trace == 1, *traceOut, *out)
	}
}

// runOne measures one workload in this process and prints its result.
func runOne(ctx context.Context, stdout, stderr io.Writer, w *workload, seed int64, window time.Duration, traced bool, traceOut string) error {
	out, err := runWorkload(ctx, w, seed, window, traced, fullSize)
	if err != nil {
		return err
	}
	res := out.result()
	report(stderr, w, seed, out, res)
	if traceOut != "" && out.traced != nil {
		if err := writeSpans(traceOut, out.traced.mem.Spans()); err != nil {
			return err
		}
	}
	// The outputs go on the line before the result, for -compare.
	for _, v := range []any{outputsLine{out.plain.sigs}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// report prints the human-readable summary of one invocation.
func report(w io.Writer, wl *workload, seed int64, out *outcome, res result) {
	fmt.Fprintf(w, "%s seed %d: %d operations attempted, %d failed\n", wl.name, seed, res.Attempted, res.Failed)
	for _, p := range []*pass{out.plain, out.traced} {
		if p != nil {
			for _, e := range p.errs {
				fmt.Fprintf(w, "  FAILED: %s\n", e)
			}
		}
	}
	for _, d := range printed(out.traced != nil) {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	p := out.plain
	fmt.Fprintf(w, "  untraced latency: n=%d p50=%.3fms p90=%.3fms p99=%.3fms p99.9=%.3fms\n",
		len(p.lat), pick(p.lat, 0.5), pick(p.lat, 0.9), pick(p.lat, 0.99), pick(p.lat, 0.999))
	if p.extra["client.late_share"] > 0 || p.extra["client.backlog"] > 0 {
		fmt.Fprintf(w, "  open loop: backlog max %.0f, %.2f%% sent >1ms late\n", p.extra["client.backlog"], p.extra["client.late_share"])
	}
	if out.traced == nil {
		return
	}
	a := out.sums
	fmt.Fprintf(w, "  self time by span:\n")
	for _, name := range a.selfTable() {
		fmt.Fprintf(w, "    %-18s n=%-6d self %10.4fs\n", name, a.count[name], a.self[name].Seconds())
	}
	if a.count["serve.label"] > 0 {
		fmt.Fprintf(w, "    serve.label split: queue wait %.4fs, batch %.4fs\n", a.queueWait.Seconds(), a.labelBatch.Seconds())
	}
	if op := a.total["bench.op"]; op > 0 {
		fmt.Fprintf(w, "  layers cover %.2f%% of the traced operations (bench.op self time is the rest)\n",
			100-share(a.self["bench.op"], op))
	}
}

func writeSpans(path string, spans []obs.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a fresh child process per run, so peak
// RSS and GC state stay per workload, and collects a result set.
func runAll(ctx context.Context, stdout, stderr io.Writer, seed int64, seconds float64, runs int, traced bool, traceOut, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := newSet(seconds)
	child := func(w *workload, s int64, trace int) error {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if trace == 1 && traceOut != "" {
			args = append(args, "-trace-out", traceOut+"."+w.name+".jsonl")
		}
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		start := time.Now()
		runErr := cmd.Run()
		rec := runRecord{Workload: w.name, Seed: s, Trace: trace, WallS: time.Since(start).Seconds()}
		lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
		if len(lines) < 2 || json.Unmarshal(lines[len(lines)-1], &rec.result) != nil ||
			json.Unmarshal(lines[len(lines)-2], &rec.outputsLine) != nil {
			return fmt.Errorf("%s seed %d: no result (%v)", w.name, s, runErr)
		}
		set.Runs = append(set.Runs, rec)
		return nil
	}
	var failures []error
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			if err := child(w, seed+int64(i), 0); err != nil {
				failures = append(failures, err)
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		if traced {
			if err := child(w, seed, 1); err != nil {
				failures = append(failures, err)
			}
		}
	}
	if outPath != "" {
		if err := set.write(outPath); err != nil {
			return err
		}
	}
	set.summary(stdout)
	for _, r := range set.Runs {
		if !r.Correct {
			failures = append(failures, fmt.Errorf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted))
		}
	}
	return errors.Join(failures...)
}
