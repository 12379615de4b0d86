// Command loadgen drives mixed single/batch labeling traffic across
// tenants of a datasculptd daemon and records latency percentiles and
// throughput, giving serving performance the same committed-benchmark
// trajectory (BENCH_serve.json) the pipeline has in BENCH_pipeline.json.
//
// Two targets:
//
//	loadgen -addr http://localhost:8080 -tenants 4 -duration 10s
//	loadgen -bundle model.json -tenants 4 -duration 10s -out BENCH_serve.json
//
// With -addr it load-tests a running daemon (tenant-0..tenant-N-1 must
// be registered there). With -bundle it boots an in-process loopback
// daemon first — registry, gateway, coalescer, real HTTP — which is
// what `make bench-serve` uses, so the benchmark needs no process
// orchestration. -render pretty-prints a previously written report.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

type loadConfig struct {
	addr        string
	bundlePath  string
	tenants     int
	duration    time.Duration
	concurrency int
	batchFrac   float64
	batchSize   int
	explainFrac float64
	maxBatch    int
	queueDepth  int
	seed        int64
	traceOut    string
	traceSample float64
	traceSlow   time.Duration
}

// quantiles is the latency summary of one request class.
type quantiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// serverSide is what the daemon's own /metrics said after the run —
// server-side truth to cross-check the client-side numbers against
// (shed counts explain client 429s, batch counts give the effective
// coalescing ratio).
type serverSide struct {
	Shed             float64            `json:"shed"`
	Dropped          float64            `json:"dropped"`
	Errors           float64            `json:"errors"`
	Batches          float64            `json:"batches"`
	RequestsByTenant map[string]float64 `json:"requests_by_tenant,omitempty"`
}

// traceStats summarizes the sampled JSONL trace of an in-process run.
type traceStats struct {
	Spans         int `json:"spans"`
	GatewaySpans  int `json:"gateway_spans"`
	WithRequestID int `json:"with_request_id"`
}

// report is the BENCH_serve.json schema.
type report struct {
	CreatedUnix int64          `json:"created_unix"`
	Config      map[string]any `json:"config"`
	Requests    int            `json:"requests"`
	Texts       int            `json:"texts"`
	Errors      map[string]int `json:"errors,omitempty"`
	Duration    float64        `json:"duration_seconds"`
	RequestsPS  float64        `json:"throughput_rps"`
	TextsPS     float64        `json:"throughput_tps"`
	Latency     quantiles      `json:"latency"`
	Single      quantiles      `json:"single"`
	Batch       quantiles      `json:"batch"`
	Server      *serverSide    `json:"server,omitempty"`
	Trace       *traceStats    `json:"trace,omitempty"`
}

func main() {
	var cfg loadConfig
	var out, render string
	var smoke bool
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running daemon (e.g. http://localhost:8080)")
	flag.StringVar(&cfg.bundlePath, "bundle", "", "bundle file; boots an in-process loopback daemon instead of targeting -addr")
	flag.IntVar(&cfg.tenants, "tenants", 4, "tenant count (tenant-0..tenant-N-1)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive traffic")
	flag.IntVar(&cfg.concurrency, "concurrency", 16, "concurrent client workers")
	flag.Float64Var(&cfg.batchFrac, "batch-frac", 0.25, "fraction of requests that are batches")
	flag.IntVar(&cfg.batchSize, "batch-size", 8, "texts per batch request")
	flag.Float64Var(&cfg.explainFrac, "explain-frac", 0.1, "fraction of requests asking for explanations")
	flag.IntVar(&cfg.maxBatch, "max-batch", 64, "daemon max-batch (in-process mode)")
	flag.IntVar(&cfg.queueDepth, "queue-depth", 0, "daemon queue depth (in-process mode; 0 = default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "traffic rng seed")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "stream sampled JSONL spans here (in-process mode)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0.01, "head-sampling probability for -trace-out")
	flag.DurationVar(&cfg.traceSlow, "trace-slow", 250*time.Millisecond, "always keep traces at least this slow (0 disables)")
	flag.StringVar(&out, "out", "", "write the JSON report here (default stdout)")
	flag.StringVar(&render, "render", "", "pretty-print an existing report file and exit")
	flag.BoolVar(&smoke, "smoke", false, "smoke preset: 2s, 4 workers, 2 tenants")
	flag.Parse()

	if render != "" {
		if err := renderReport(os.Stdout, render); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if smoke {
		cfg.duration = 2 * time.Second
		cfg.concurrency = 4
		cfg.tenants = 2
	}
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func runLoad(cfg loadConfig) (*report, error) {
	if (cfg.addr == "") == (cfg.bundlePath == "") {
		return nil, errors.New("provide exactly one of -addr and -bundle")
	}
	if cfg.tenants < 1 || cfg.concurrency < 1 || cfg.batchSize < 1 {
		return nil, errors.New("-tenants, -concurrency and -batch-size must be >= 1")
	}
	base := cfg.addr
	shutdown := func() {}
	if cfg.bundlePath != "" {
		var addr string
		var err error
		shutdown, addr, err = startLoopback(cfg)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		base = addr
	}
	tenants := make([]string, cfg.tenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.concurrency * 2,
		MaxIdleConnsPerHost: cfg.concurrency * 2,
	}}

	type sample struct {
		ms    float64
		batch bool
	}
	type workerStats struct {
		samples  []sample
		texts    int
		statuses map[int]int
	}
	stats := make([]workerStats, cfg.concurrency)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			st := &stats[w]
			st.statuses = make(map[int]int)
			for time.Now().Before(deadline) {
				tenant := tenants[rng.Intn(len(tenants))]
				batch := rng.Float64() < cfg.batchFrac
				n := 1
				if batch {
					n = cfg.batchSize
				}
				body, err := json.Marshal(requestBody(rng, n, rng.Float64() < cfg.explainFrac))
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/tenants/"+tenant+"/label", "application/json", bytes.NewReader(body))
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for keep-alive
				resp.Body.Close()
				ms := float64(time.Since(t0).Microseconds()) / 1000
				st.statuses[resp.StatusCode]++
				if resp.StatusCode == http.StatusOK {
					st.samples = append(st.samples, sample{ms: ms, batch: batch})
					st.texts += n
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if firstErr != nil {
		return nil, firstErr
	}
	// Server-side truth: what the daemon's own counters say happened.
	// Scraped while the daemon is still up, before the loopback shutdown.
	server := scrapeServerMetrics(client, base)

	var all, single, batch []float64
	texts, requests := 0, 0
	errCounts := make(map[string]int)
	for _, st := range stats {
		texts += st.texts
		for code, n := range st.statuses {
			requests += n
			if code != http.StatusOK {
				errCounts[fmt.Sprint(code)] += n
			}
		}
		for _, s := range st.samples {
			all = append(all, s.ms)
			if s.batch {
				batch = append(batch, s.ms)
			} else {
				single = append(single, s.ms)
			}
		}
	}
	if len(all) == 0 {
		return nil, errors.New("no request succeeded")
	}
	rep := &report{
		CreatedUnix: time.Now().Unix(),
		Config: map[string]any{
			"tenants":     cfg.tenants,
			"concurrency": cfg.concurrency,
			"batch_frac":  cfg.batchFrac,
			"batch_size":  cfg.batchSize,
			"max_batch":   cfg.maxBatch,
			"in_process":  cfg.bundlePath != "",
			"seed":        cfg.seed,
		},
		Requests:   requests,
		Texts:      texts,
		Duration:   elapsed,
		RequestsPS: float64(requests) / elapsed,
		TextsPS:    float64(texts) / elapsed,
		Latency:    summarize(all),
		Single:     summarize(single),
		Batch:      summarize(batch),
	}
	if len(errCounts) > 0 {
		rep.Errors = errCounts
	}
	rep.Server = server
	if cfg.bundlePath != "" && cfg.traceOut != "" {
		// Close the loopback daemon now (idempotent; the defer re-runs as
		// a no-op) so every sampled span is flushed before counting.
		shutdown()
		rep.Trace = readTraceStats(cfg.traceOut)
	}
	return rep, nil
}

// startLoopback boots a full in-process daemon — registry, gateway,
// real HTTP on 127.0.0.1 — with the bundle registered under every
// tenant (each tenant loads its own copy, as distinct customers would).
// The daemon gets a real metrics registry (so the post-run /metrics
// scrape sees server-side truth) and, with -trace-out, a sampled JSONL
// tracer. shutdown is idempotent.
func startLoopback(cfg loadConfig) (shutdown func(), base string, err error) {
	tracer := obs.Tracer(obs.NopTracer())
	var traceFile *os.File
	if cfg.traceOut != "" {
		traceFile, err = os.Create(cfg.traceOut)
		if err != nil {
			return nil, "", err
		}
		tracer = obs.NewSampledTracer(obs.NewJSONLTracer(traceFile), obs.SamplerOptions{
			Rate:       cfg.traceSample,
			KeepErrors: true,
			SlowLatch:  cfg.traceSlow,
		})
	}
	o := obs.New(tracer, obs.NewRegistry(), nil)
	reg := registry.New(o, registry.Options{
		// Every tenant resident: loadgen measures the serving hot path,
		// not cold remaps. LRU churn is exercised by the registry tests.
		MaxResident: cfg.tenants,
		Serve: serve.Options{
			MaxBatch:   cfg.maxBatch,
			QueueDepth: cfg.queueDepth,
		},
	})
	for i := 0; i < cfg.tenants; i++ {
		if err := reg.Register(fmt.Sprintf("tenant-%d", i), cfg.bundlePath); err != nil {
			reg.Close()
			return nil, "", err
		}
	}
	gw := registry.NewGateway(reg, o, registry.GatewayOptions{DefaultTenant: "tenant-0"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, "", err
	}
	httpSrv := &http.Server{Handler: gw.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck — closed on shutdown
	var once sync.Once
	shutdown = func() {
		once.Do(func() {
			httpSrv.Close()
			reg.Close() // drains coalescers; their batch spans end here
			if traceFile != nil {
				traceFile.Close()
			}
		})
	}
	return shutdown, "http://" + ln.Addr().String(), nil
}

// scrapeServerMetrics folds the daemon's /metrics into the report's
// server section. Best-effort: a daemon without the endpoint (or an old
// one) yields nil, not an error.
func scrapeServerMetrics(client *http.Client, base string) *serverSide {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for keep-alive
		return nil
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	ss := &serverSide{RequestsByTenant: make(map[string]float64)}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, ok := parseMetricLine(line)
		if !ok {
			continue
		}
		switch name {
		case "serve_shed_total":
			ss.Shed += value
		case "serve_dropped_total":
			ss.Dropped += value
		case "serve_errors_total":
			ss.Errors += value
		case "serve_batches_total":
			ss.Batches += value
		case "serve_requests_total":
			if t := labels["tenant"]; t != "" {
				ss.RequestsByTenant[t] += value
			}
		}
	}
	return ss
}

// parseMetricLine splits one Prometheus sample into name, labels, value.
// Good enough for the serve_* families loadgen folds in (tenant IDs are
// validated upstream, so label values here never contain escapes).
func parseMetricLine(line string) (name string, labels map[string]string, value float64, ok bool) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, 0, false
		}
		name, rest = line[:i], line[j+1:]
		labels = make(map[string]string)
		for _, pair := range strings.Split(line[i+1:j], ",") {
			k, v, found := strings.Cut(pair, "=")
			if found {
				labels[k] = strings.Trim(v, `"`)
			}
		}
	} else if i := strings.IndexByte(line, ' '); i >= 0 {
		name, rest = line[:i], line[i:]
	} else {
		return "", nil, 0, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", nil, 0, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, false
	}
	return name, labels, v, true
}

// readTraceStats counts the sampled spans the run kept. Called after
// shutdown, so every span (including batch spans ending on server
// goroutines) has been flushed.
func readTraceStats(path string) *traceStats {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	ts := &traceStats{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var span struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		}
		if json.Unmarshal(line, &span) != nil {
			continue
		}
		ts.Spans++
		if span.Name == "gateway.request" {
			ts.GatewaySpans++
			if s, ok := span.Attrs["request_id"].(string); ok && s != "" {
				ts.WithRequestID++
			}
		}
	}
	return ts
}

// requestBody builds one deterministic synthetic request: YouTube-
// comment-flavored texts so keyword LFs and the featurizer vocabulary
// both get realistic hit rates.
func requestBody(rng *rand.Rand, n int, explain bool) map[string]any {
	if n == 1 {
		return map[string]any{"text": synthText(rng), "explain": explain}
	}
	texts := make([]string, n)
	for i := range texts {
		texts[i] = synthText(rng)
	}
	return map[string]any{"texts": texts, "explain": explain}
}

var phrases = []string{
	"check out my channel", "subscribe for free stuff", "click this link to win a prize",
	"follow me and i follow back", "make money from home fast", "visit my website now",
	"great song love it", "this brings back memories", "who is watching in 2026",
	"the best video on youtube", "amazing voice so talented", "i listen to this every day",
	"what a classic tune", "my favorite part is the chorus", "saw them live last year",
}

func synthText(rng *rand.Rand) string {
	k := 1 + rng.Intn(3)
	parts := make([]string, k)
	for i := range parts {
		parts[i] = phrases[rng.Intn(len(phrases))]
	}
	return strings.Join(parts, ", ")
}

// summarize sorts a latency sample and reads off the percentiles.
func summarize(ms []float64) quantiles {
	if len(ms) == 0 {
		return quantiles{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	pick := func(p float64) float64 {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return quantiles{
		Count: len(sorted),
		P50:   pick(0.50),
		P90:   pick(0.90),
		P99:   pick(0.99),
		Max:   sorted[len(sorted)-1],
	}
}

// renderReport pretty-prints a report file — the human-readable check
// `make bench-serve` runs after writing BENCH_serve.json.
func renderReport(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if rep.Requests == 0 || rep.Latency.Count == 0 {
		return fmt.Errorf("%s: empty report", path)
	}
	fmt.Fprintf(w, "serve benchmark (%s)\n", path)
	fmt.Fprintf(w, "  %d requests, %d texts in %.2fs — %.0f req/s, %.0f texts/s\n",
		rep.Requests, rep.Texts, rep.Duration, rep.RequestsPS, rep.TextsPS)
	row := func(name string, q quantiles) {
		if q.Count == 0 {
			return
		}
		fmt.Fprintf(w, "  %-7s n=%-7d p50=%.2fms  p90=%.2fms  p99=%.2fms  max=%.2fms\n",
			name, q.Count, q.P50, q.P90, q.P99, q.Max)
	}
	row("all", rep.Latency)
	row("single", rep.Single)
	row("batch", rep.Batch)
	for code, n := range rep.Errors {
		fmt.Fprintf(w, "  status %s: %d\n", code, n)
	}
	// Server/trace sections are absent in pre-observability reports.
	if s := rep.Server; s != nil {
		fmt.Fprintf(w, "  server: batches=%.0f shed=%.0f dropped=%.0f errors=%.0f\n",
			s.Batches, s.Shed, s.Dropped, s.Errors)
		tenants := make([]string, 0, len(s.RequestsByTenant))
		for t := range s.RequestsByTenant {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			fmt.Fprintf(w, "    %-12s %.0f requests\n", t, s.RequestsByTenant[t])
		}
	}
	if t := rep.Trace; t != nil {
		fmt.Fprintf(w, "  trace: %d spans kept (%d gateway, %d with request id)\n",
			t.Spans, t.GatewaySpans, t.WithRequestID)
	}
	return nil
}
