// Command loadgen load-tests a running datasculptd daemon: it drives
// mixed single/batch labeling traffic across tenant-0..tenant-N-1 (they
// must be registered there) and reports client-side latency percentiles
// and throughput, plus the daemon's own /metrics counters.
//
//	loadgen -addr http://localhost:8080 -tenants 4 -duration 10s -out report.json
//	loadgen -render report.json
//
// -render pretty-prints a previously written report. The repo's
// performance numbers come from `bash bench/run.sh`, not from loadgen.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type loadConfig struct {
	addr        string
	tenants     int
	duration    time.Duration
	concurrency int
	batchFrac   float64
	batchSize   int
	explainFrac float64
	seed        int64
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

// report is the JSON report schema (also that of the committed
// BENCH_serve.json).
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
}

func main() {
	var cfg loadConfig
	var out, render string
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running daemon (e.g. http://localhost:8080; required)")
	flag.IntVar(&cfg.tenants, "tenants", 4, "tenant count (tenant-0..tenant-N-1)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive traffic")
	flag.IntVar(&cfg.concurrency, "concurrency", 16, "concurrent client workers")
	flag.Float64Var(&cfg.batchFrac, "batch-frac", 0.25, "fraction of requests that are batches")
	flag.IntVar(&cfg.batchSize, "batch-size", 8, "texts per batch request")
	flag.Float64Var(&cfg.explainFrac, "explain-frac", 0.1, "fraction of requests asking for explanations")
	flag.Int64Var(&cfg.seed, "seed", 1, "traffic rng seed")
	flag.StringVar(&out, "out", "", "write the JSON report here (default stdout)")
	flag.StringVar(&render, "render", "", "pretty-print an existing report file and exit")
	flag.Parse()

	if render != "" {
		if err := renderReport(os.Stdout, render); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
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
	if cfg.addr == "" {
		return nil, errors.New("-addr is required")
	}
	if cfg.tenants < 1 || cfg.concurrency < 1 || cfg.batchSize < 1 {
		return nil, errors.New("-tenants, -concurrency and -batch-size must be >= 1")
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
				resp, err := client.Post(cfg.addr+"/v1/tenants/"+tenant+"/label", "application/json", bytes.NewReader(body))
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
	server := scrapeServerMetrics(client, cfg.addr)

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
	return rep, nil
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

// renderReport pretty-prints a report file.
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
	// The server section is absent in pre-observability reports.
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
	return nil
}
