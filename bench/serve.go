package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

// Load comes from this process over two keep-alive connections, one per
// sender: the host has two cores, and more connections would measure
// the client's contention for them rather than the server.
const connections = 2

// serveConfig is one traffic mix against an in-process daemon.
type serveConfig struct {
	corpus      corpus  // dataset the served bundle is trained on
	tenants     int     // tenants serving copies of the bundle
	batchFrac   float64 // share of requests that are batches
	batchSize   int     // texts per batch request
	explainFrac float64 // share of requests asking for explanations
	// rate is the open-loop arrival rate of phase A (req/s); 0 runs only
	// the closed loop.
	rate float64
	// distinct draws texts from a second corpus of the same dataset
	// instead of loadgen's phrase pool.
	distinct bool
}

// loadgen's default phrase pool: 1 to 3 of 15 phrases, 3,615 texts.
var phrases = []string{
	"check out my channel", "subscribe for free stuff", "click this link to win a prize",
	"follow me and i follow back", "make money from home fast", "visit my website now",
	"great song love it", "this brings back memories", "who is watching in 2026",
	"the best video on youtube", "amazing voice so talented", "i listen to this every day",
	"what a classic tune", "my favorite part is the chorus", "saw them live last year",
}

func serveWorkload(name, why string, sc serveConfig) *workload {
	return &workload{name: name, why: why, setup: func(ctx context.Context, e *setupEnv) (instance, error) {
		return setupServe(e, sc)
	}}
}

type serveInst struct {
	cfg     serveConfig
	seed    int64
	dir     string
	obs     *obs.Obs
	reg     *registry.Registry
	srv     *http.Server
	served  chan error
	base    string
	clients []*http.Client
	offline *bundle.Bundle // an independent load of the served bundle
	pool    []string       // distinct texts, when cfg.distinct
	warmed  bool
	// expect gives the predictions responses must match (s.expected).
	expect func(texts []string) [][]float64

	mu       sync.Mutex
	firstLen map[uint64]int // response length first seen per request body
	kept     []keptResponse
}

// keptResponse is a response body set aside for verification.
type keptResponse struct {
	texts []string
	body  []byte
}

func setupServe(e *setupEnv, sc serveConfig) (_ *serveInst, err error) {
	s := &serveInst{cfg: sc, seed: e.seed, firstLen: make(map[uint64]int)}
	s.expect = s.expected
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	d, err := e.generate(sc.corpus, e.seed)
	if err != nil {
		return nil, err
	}
	b, err := trainBundle(e, d)
	if err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp("", "datasculpt-bench-serve-"); err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, "bundle.json")
	if s.offline, err = saveAndLoad(e, b, path); err != nil {
		return nil, err
	}
	if sc.distinct {
		pool, err := e.generate(sc.corpus, e.seed+1)
		if err != nil {
			return nil, err
		}
		s.pool = dataset.Texts(pool.Train)
		rand.New(rand.NewSource(e.seed)).Shuffle(len(s.pool), func(i, j int) { s.pool[i], s.pool[j] = s.pool[j], s.pool[i] })
	}
	err = e.step("setup.register", func() error {
		// The daemon always keeps a metrics registry (its /metrics
		// endpoint); the tracer is on only in the traced pass.
		s.obs = obs.New(e.tracer(), obs.NewRegistry(), nil)
		s.reg = registry.New(s.obs, registry.Options{MaxResident: sc.tenants})
		for t := 0; t < sc.tenants; t++ {
			if err := s.reg.Register(tenantName(t), path); err != nil {
				return err
			}
		}
		var h http.Handler = registry.NewGateway(s.reg, s.obs, registry.GatewayOptions{DefaultTenant: tenantName(0)}).Handler()
		if e.mem != nil {
			h = tracedHandler(h, e.mem)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.base = "http://" + ln.Addr().String()
		s.srv = &http.Server{Handler: h}
		s.served = make(chan error, 1)
		go func() { s.served <- s.srv.Serve(ln) }()
		for i := 0; i < connections; i++ {
			s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// trainBundle runs the pipeline once, untraced, and packages the result.
func trainBundle(e *setupEnv, d *dataset.Dataset) (b *bundle.Bundle, err error) {
	cfg := core.DefaultConfig(core.VariantBase)
	cfg.Seed = e.seed
	if e.size.iterations > 0 {
		cfg.Iterations = e.size.iterations
	}
	err = e.step("setup.train", func() error {
		res, err := core.Run(d, cfg)
		if err != nil {
			return err
		}
		b, err = bundle.New(d, cfg, res)
		return err
	})
	return b, err
}

// saveAndLoad persists b and reads it back, as a daemon would.
func saveAndLoad(e *setupEnv, b *bundle.Bundle, path string) (out *bundle.Bundle, err error) {
	if err := e.step("bundle.save", func() error { return bundle.Save(path, b) }); err != nil {
		return nil, err
	}
	err = e.step("bundle.load", func() error {
		out, err = bundle.Load(path)
		return err
	})
	return out, err
}

func (s *serveInst) close() {
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
	if s.reg != nil {
		s.reg.Close()
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// splitmix is a tiny deterministic generator: request k of a phase is a
// pure function of (seed, phase, k), whichever connection sends it.
type splitmix uint64

func newSplitmix(seed int64, stream, k uint64) *splitmix {
	s := splitmix(uint64(seed)*0x9E3779B97F4A7C15 ^ stream<<48 ^ k*0xD1B54A32D192ED03)
	return &s
}

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// request is one label call.
type request struct {
	tenant string
	texts  []string
	body   []byte
}

// Request streams, so phases never share requests.
const (
	streamWarmup = iota
	streamOpen
	streamClosed
)

func (s *serveInst) request(stream, k uint64) request {
	r := newSplitmix(s.seed, stream, k)
	n, tenant := 1, tenantName(r.intn(s.cfg.tenants))
	if r.float() < s.cfg.batchFrac {
		n = s.cfg.batchSize
	}
	explain := r.float() < s.cfg.explainFrac
	texts := make([]string, n)
	for i := range texts {
		if s.pool != nil {
			texts[i] = s.pool[(int(k)*n+i)%len(s.pool)]
			continue
		}
		parts := make([]string, 1+r.intn(3))
		for j := range parts {
			parts[j] = phrases[r.intn(len(phrases))]
		}
		texts[i] = strings.Join(parts, ", ")
	}
	body := struct {
		Text    string   `json:"text,omitempty"`
		Texts   []string `json:"texts,omitempty"`
		Explain bool     `json:"explain"`
	}{Explain: explain}
	if n == 1 {
		body.Text = texts[0]
	} else {
		body.Texts = texts
	}
	data, _ := json.Marshal(body) // strings and a bool cannot fail to encode
	return request{tenant: tenant, texts: texts, body: data}
}

// send posts one request and reads the whole response. With a tracer
// it opens a client.request span and passes its trace on.
func (s *serveInst) send(ctx context.Context, c *http.Client, req *request, mem *obs.MemoryTracer) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/tenants/"+req.tenant+"/label", bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	var span obs.Span
	if mem != nil {
		trace := obs.NewTraceID()
		hr.Header.Set("traceparent", obs.FormatTraceparent(trace, obs.NewRequestID()))
		span = mem.StartTrace(trace, "client.request")
	}
	status, body := 0, []byte(nil)
	resp, err := c.Do(hr)
	if err == nil {
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if span != nil {
		span.SetErr(err)
		span.End()
	}
	return status, body, err
}

// record checks a response's status and sets aside every 50th response,
// and every response whose length differs from the first response to
// the same tenant and body, for verification after the window.
func (s *serveInst) record(p *pass, k uint64, req *request, status int, body []byte, err error) bool {
	if err != nil {
		p.fail("request %d: %v", k, err)
		return false
	}
	if status != http.StatusOK {
		p.fail("request %d: status %d: %.200s", k, status, body)
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(req.tenant))
	h.Write(req.body)
	key := h.Sum64()
	s.mu.Lock()
	first, seen := s.firstLen[key]
	if !seen {
		s.firstLen[key] = len(body)
	}
	if k%50 == 0 || (seen && first != len(body)) {
		s.kept = append(s.kept, keptResponse{texts: req.texts, body: body})
	}
	s.mu.Unlock()
	return true
}

// shot is one open-loop request: offsets from the phase start of when
// it was due, when it was sent (-1: never) and when it completed.
type shot struct {
	due, start, done time.Duration
	ok               bool
}

// schedule draws Poisson arrivals at rate over d.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	r := newSplitmix(seed, streamOpen, math.MaxUint32)
	var out []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(-math.Log(1-r.float()) / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, t)
	}
}

// openLoop sends a schedule of requests at their due times over the
// connections. A request starts when it is due or, when both
// connections are busy, as soon as one frees up; one still unsent
// drain after the last due time counts as failed.
func (s *serveInst) openLoop(ctx context.Context, due []time.Duration, drain time.Duration, p *pass) []shot {
	reqs := make([]request, len(due))
	for i := range reqs {
		reqs[i] = s.request(streamOpen, uint64(i))
	}
	shots := make([]shot, len(due))
	var next atomic.Int64
	var end time.Duration
	if len(due) > 0 {
		end = due[len(due)-1] + drain
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex // guards p
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				sh := &shots[i]
				sh.due, sh.start = due[i], -1
				if wait := due[i] - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				if now := time.Since(t0); now <= end && ctx.Err() == nil {
					sh.start = now
					status, body, err := s.send(ctx, c, &reqs[i], p.mem)
					sh.done = time.Since(t0)
					mu.Lock()
					sh.ok = s.record(p, uint64(i), &reqs[i], status, body, err)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	for _, sh := range shots {
		if sh.start < 0 {
			p.fail("request due at %v still unsent when the phase ended", sh.due)
		}
	}
	p.attempted += len(shots)
	return shots
}

// fromDue returns the latency of each completed request measured from
// when it was due, so time spent waiting for a free connection counts.
func fromDue(shots []shot) []float64 {
	var out []float64
	for _, sh := range shots {
		if sh.ok {
			out = append(out, ms(sh.done-sh.due))
		}
	}
	return out
}

// backlog is the most requests ever due but not yet sent. Requests come
// due in schedule order, so the maximum is reached at a due time.
func backlog(shots []shot) int {
	starts := make([]time.Duration, 0, len(shots))
	for _, sh := range shots {
		if sh.start >= 0 {
			starts = append(starts, sh.start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	worst, started := 0, 0
	for i, sh := range shots {
		for started < len(starts) && starts[started] <= sh.due {
			started++
		}
		worst = max(worst, i+1-started)
	}
	return worst
}

// lateShare is the share of requests sent more than a millisecond after
// they were due: a busy connection or a late generator.
func lateShare(shots []shot) float64 {
	late := 0
	for _, sh := range shots {
		if sh.start < 0 || sh.start-sh.due > time.Millisecond {
			late++
		}
	}
	if len(shots) == 0 {
		return 0
	}
	return 100 * float64(late) / float64(len(shots))
}

// closedLoop sends stream's requests back to back on every connection
// for d and returns each success's round trip, the texts they carried,
// and the wall clock until the last one completed.
func (s *serveInst) closedLoop(ctx context.Context, stream uint64, d time.Duration, p *pass) (rtt []float64, texts int, elapsed time.Duration) {
	var next atomic.Uint64
	var mu sync.Mutex // guards p, rtt, texts
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Since(t0) < d && ctx.Err() == nil {
				k := next.Add(1) - 1
				req := s.request(stream, k)
				start := time.Now()
				status, body, err := s.send(ctx, c, &req, p.mem)
				took := time.Since(start)
				mu.Lock()
				p.attempted++
				if s.record(p, k, &req, status, body, err) {
					rtt = append(rtt, ms(took))
					texts += len(req.texts)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return rtt, texts, time.Since(t0)
}

// serveCounters are the daemon's own totals over every tenant.
type serveCounters struct{ batches, shed, dropped, sizeSum, sizeCount float64 }

func (s *serveInst) counters() serveCounters {
	r := s.obs.Metrics
	c := serveCounters{
		batches: r.CounterValue("serve_batches_total"),
		shed:    r.CounterValue("serve_shed_total"),
		dropped: r.CounterValue("serve_dropped_total"),
	}
	if series, ok := r.Snapshot()["serve_batch_size"].(map[string]any); ok {
		for _, v := range series {
			if h, ok := v.(obs.HistogramSnapshot); ok {
				c.sizeSum += h.Sum
				c.sizeCount += float64(h.Count)
			}
		}
	}
	return c
}

// measure runs the mix. With an arrival rate, three quarters of the
// window are phase A, the open loop whose from-due latency is the
// workload's latency, and the last quarter phase B, the closed loop
// that finds the throughput ceiling; without one, the whole window is
// the closed loop and its round trips are the latency. Kept responses
// are verified after the window.
func (s *serveInst) measure(ctx context.Context, window time.Duration, p *pass) error {
	if !s.warmed {
		warm := newPass(nil)
		s.closedLoop(ctx, streamWarmup, min(window/10, 500*time.Millisecond), warm)
		if warm.failed > 0 {
			return fmt.Errorf("warm-up: %s", strings.Join(warm.errs, "; "))
		}
		s.warmed = true
		s.kept = nil
	}
	before := s.counters()
	closed := window
	if s.cfg.rate > 0 {
		closed = window / 4
		shots := s.openLoop(ctx, schedule(s.seed, s.cfg.rate, window-closed), 250*time.Millisecond, p)
		p.lat = fromDue(shots)
		p.extra["client.backlog"] = float64(backlog(shots))
		p.extra["client.late_share"] = lateShare(shots)
	}
	rtt, texts, elapsed := s.closedLoop(ctx, streamClosed, closed, p)
	if s.cfg.rate == 0 {
		p.lat = rtt
	}
	if elapsed > 0 {
		p.extra["client.closed_texts_per_s"] = float64(texts) / elapsed.Seconds()
	}
	after := s.counters()
	p.extra["serve.batches"] = after.batches - before.batches
	p.extra["serve.shed"] = after.shed - before.shed
	p.extra["serve.dropped"] = after.dropped - before.dropped
	if n := after.sizeCount - before.sizeCount; n > 0 {
		p.extra["serve.batch_size_mean"] = (after.sizeSum - before.sizeSum) / n
	}
	if p50 := pick(p.lat, 0.5); p50 > 0 {
		p.extra["client.p99_over_p50"] = pick(p.lat, 0.99) / p50
	}
	for _, err := range verify(s.kept, s.expect) {
		p.fail("verification: %v", err)
	}
	s.kept = nil
	// The pass's output is the bundle it served, identified by the run
	// that trained it (bundle.Fingerprint includes the save time).
	pv := s.offline.Provenance
	p.sigs = append(p.sigs, digest(s.offline.LFs, pv.EndMetric, pv.PromptTokens+pv.CompletionTokens))
	return ctx.Err()
}

// expected is the offline path: featurize and predict with an
// independently loaded copy of the served bundle.
func (s *serveInst) expected(texts []string) [][]float64 {
	corpus := make([][]string, len(texts))
	for i, t := range texts {
		e := &dataset.Example{ID: -1, Text: t, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
		corpus[i] = e.FeatureTokens()
	}
	return s.offline.EndModel.PredictProbaAll(s.offline.Featurizer.TransformAll(corpus))
}

// labelResponse is the gateway's success body.
type labelResponse struct {
	Prediction  *serve.Prediction  `json:"prediction"`
	Predictions []serve.Prediction `json:"predictions"`
}

// verify decodes kept responses and returns one error per response
// whose predictions are not bit-identical to the offline path.
func verify(kept []keptResponse, expected func([]string) [][]float64) []error {
	var texts []string
	for _, k := range kept {
		texts = append(texts, k.texts...)
	}
	want := expected(texts)
	var errs []error
	off := 0
	for _, k := range kept {
		exp := want[off : off+len(k.texts)]
		off += len(k.texts)
		if err := checkResponse(k, exp); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func checkResponse(k keptResponse, exp [][]float64) error {
	var resp labelResponse
	if err := json.Unmarshal(k.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	preds := resp.Predictions
	if resp.Prediction != nil {
		preds = []serve.Prediction{*resp.Prediction}
	}
	if len(preds) != len(exp) {
		return fmt.Errorf("%d predictions for %d texts", len(preds), len(exp))
	}
	for i, pred := range preds {
		if len(pred.Proba) != len(exp[i]) {
			return fmt.Errorf("text %q: %d classes, want %d", k.texts[i], len(pred.Proba), len(exp[i]))
		}
		best := 0
		for c, v := range exp[i] {
			if math.Float64bits(pred.Proba[c]) != math.Float64bits(v) {
				return fmt.Errorf("text %q: proba[%d] = %v, offline %v", k.texts[i], c, pred.Proba[c], v)
			}
			if v > exp[i][best] {
				best = c
			}
		}
		if pred.Label != best {
			return fmt.Errorf("text %q: label %d, offline %d", k.texts[i], pred.Label, best)
		}
	}
	return nil
}

func (s *serveInst) layers(p *pass, _ spanSums, m map[string]float64) {
	for _, name := range []string{"serve.batches", "serve.shed", "serve.dropped", "serve.batch_size_mean",
		"client.backlog", "client.late_share", "client.p99_over_p50", "client.closed_texts_per_s"} {
		m[name] = p.extra[name]
	}
	m["quality.end_metric"] = s.offline.Provenance.EndMetric
}

func (s *serveInst) hotPath(p *pass) hotPath {
	h := hotPath{feat: s.offline.Featurizer, model: s.offline.EndModel, lfs: s.offline.LFs,
		batch: int(math.Round(p.extra["serve.batch_size_mean"]))}
	for k := uint64(0); len(h.texts) < 2048; k++ {
		h.texts = append(h.texts, s.request(streamClosed, k).texts...)
	}
	return h
}
