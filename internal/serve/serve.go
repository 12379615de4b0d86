// Package serve turns a model bundle into an online labeling service.
//
// The core is a micro-batching coalescer: every Label call becomes one
// queue entry, a single batch loop takes whatever is queued up to the
// batch cap, and the whole batch flows through the same parallel
// TransformAll/PredictProbaAll hot path the offline evaluator uses. No
// timer holds a batch back: a lone request is served at once, and batches
// grow under load because requests pile up while the previous batch runs.
// Because featurization and prediction are per-example independent
// with fixed-order reductions, batch composition cannot influence any
// result: a text served alone, inside a mixed batch, or by the offline
// Evaluate path produces bit-identical probabilities and labels (enforced
// by the differential and race tests in this package).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/dataset"
	"datasculpt/internal/endmodel"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/obs"
	"datasculpt/internal/textproc"
)

// ErrClosed is returned by Label once Close has begun.
var ErrClosed = errors.New("serve: server closed")

// ErrOverloaded is returned by Label when admitting the request would
// push the coalescer queue past Options.QueueDepth. The caller should
// shed the request (HTTP 429) rather than retry immediately.
var ErrOverloaded = errors.New("serve: coalescer queue full")

// Options tunes the coalescer.
type Options struct {
	// MaxBatch caps how many texts one batch carries (default 64).
	MaxBatch int
	// Workers bounds the goroutines featurization and prediction fan out
	// over per batch (<= 1 sequential; output is identical either way).
	Workers int
	// QueueDepth bounds how many texts may wait in the coalescer queue
	// (default 16*MaxBatch). Label sheds with ErrOverloaded instead of
	// queueing beyond it. A single request larger than the whole queue
	// is admitted only when the queue is idle, so oversized offline-style
	// batches still make progress without unbounding memory.
	QueueDepth int
	// Tenant labels every serve_* metric this server emits (default
	// "default"). One Server serves one bundle for one tenant, so the
	// per-tenant metric handles are resolved once at construction and
	// the hot path touches only scalar counters.
	Tenant string
	// Capture, when set, observes every admitted request's texts — the
	// feed for the online growth loop's reservoir. It runs on the
	// caller's goroutine before the texts enter the queue, so it must be
	// cheap and must not retain the slice past the call.
	Capture func(texts []string)
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16 * o.MaxBatch
	}
	if o.Tenant == "" {
		o.Tenant = "default"
	}
	return o
}

// Request outcome codes, the `code` label of serve_requests_total.
const (
	codeOK       = "ok"
	codeShed     = "shed"
	codeClosed   = "closed"
	codeCanceled = "canceled"
)

// LFVote is one active label function in an explained prediction.
type LFVote struct {
	// Name identifies the LF; Vote is the class it voted.
	Name string `json:"name"`
	Vote int    `json:"vote"`
}

// Prediction is the served result for one text.
type Prediction struct {
	// Label is the end-model argmax class index; Class its name.
	Label int    `json:"label"`
	Class string `json:"class"`
	// Proba is the end-model class distribution.
	Proba []float64 `json:"proba"`
	// LFs lists the label functions that fired (explain mode only).
	LFs []LFVote `json:"lfs,omitempty"`
	// LabelModelProba is the label-model posterior over classes, present
	// in explain mode when the bundle carries a label model and at least
	// one LF fired.
	LabelModelProba []float64 `json:"label_model_proba,omitempty"`
}

// request is one Label call in flight: its examples, its result slots,
// and done, closed once the batch holding its last text is processed.
// ctx is the caller's context: once it is cancelled the batch loop drops
// the request's unprocessed texts instead of featurizing them, so a
// client that disconnected before its batch ran does not consume batch
// capacity.
type request struct {
	ctx      context.Context
	examples []*dataset.Example
	preds    []Prediction
	explain  bool
	done     chan struct{}
}

// segment addresses texts [lo, hi) of one request within a batch.
type segment struct {
	req    *request
	lo, hi int
}

// Server coalesces label requests into batches over a loaded bundle.
type Server struct {
	b         *bundle.Bundle
	feat      *textproc.Featurizer         // b's, bound to Options.Workers
	em        *endmodel.LogisticRegression // b's, bound to Options.Workers
	predictor *labelmodel.Predictor        // nil when the bundle has no label model
	opts      Options
	o         *obs.Obs

	queue  chan *request // closed by Close, under mu
	depth  atomic.Int64  // texts admitted but not yet batched
	mu     sync.Mutex
	closed bool
	loop   sync.WaitGroup

	// beforeBatch, when non-nil, runs at the head of every process()
	// call with the batch's text count. Test hook: lets the coalescing
	// tests hold the batch loop still while they fill the queue
	// deterministically.
	beforeBatch func(size int)

	// Per-outcome request counters and the rest of the tenant's series,
	// curried once in New so the hot path sees plain scalar handles.
	mReqOK       *obs.Counter
	mReqShed     *obs.Counter
	mReqClosed   *obs.Counter
	mReqCanceled *obs.Counter
	mErrClosed   *obs.Counter
	mErrCanceled *obs.Counter
	mTexts       *obs.Counter
	mBatches     *obs.Counter
	mShed        *obs.Counter
	mDropped     *obs.Counter
	mInflight    *obs.Gauge
	mQueue       *obs.Gauge
	mBatchSz     *obs.Histogram
	mLatency     *obs.Histogram
}

// New wires a server around a validated bundle. The obs bundle may be
// nil (telemetry disabled). The bundle stays read-only: the server binds
// Options.Workers to its own shallow copies of the featurizer and end
// model, which share the bundle's weights, so any number of servers,
// shadow gates and offline replays may read one bundle at once.
func New(b *bundle.Bundle, o *obs.Obs, opts Options) (*Server, error) {
	if b == nil {
		return nil, errors.New("serve: nil bundle")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if o == nil {
		o = obs.Default()
	}
	opts = opts.withDefaults()
	feat, em := *b.Featurizer, *b.EndModel
	feat.Workers = opts.Workers
	em.SetParallelism(opts.Workers)

	s := &Server{
		b:     b,
		feat:  &feat,
		em:    &em,
		opts:  opts,
		o:     o,
		queue: make(chan *request, opts.QueueDepth),
	}
	if b.LabelModel != nil {
		s.predictor = b.LabelModel.NewPredictor()
	}
	reg := o.Metrics
	tenant := opts.Tenant
	requests := reg.CounterVec("serve_requests_total", "Label requests received, by tenant and outcome.", "tenant", "code")
	s.mReqOK = requests.With(tenant, codeOK)
	s.mReqShed = requests.With(tenant, codeShed)
	s.mReqClosed = requests.With(tenant, codeClosed)
	s.mReqCanceled = requests.With(tenant, codeCanceled)
	errs := reg.CounterVec("serve_errors_total", "Requests that failed, by tenant and cause.", "tenant", "code")
	s.mErrClosed = errs.With(tenant, codeClosed)
	s.mErrCanceled = errs.With(tenant, codeCanceled)
	s.mTexts = reg.CounterVec("serve_texts_total", "Texts labeled.", "tenant").With(tenant)
	s.mBatches = reg.CounterVec("serve_batches_total", "Micro-batches dispatched.", "tenant").With(tenant)
	s.mShed = reg.CounterVec("serve_shed_total", "Requests rejected by admission control (queue full).", "tenant").With(tenant)
	s.mDropped = reg.CounterVec("serve_dropped_total", "Queued texts dropped because their request's context ended before the batch fired.", "tenant").With(tenant)
	s.mInflight = reg.GaugeVec("serve_inflight", "Label requests currently in flight.", "tenant").With(tenant)
	s.mQueue = reg.GaugeVec("serve_queue_depth", "Texts admitted to the coalescer queue and not yet dequeued.", "tenant").With(tenant)
	s.mBatchSz = reg.HistogramVec("serve_batch_size", "Texts per dispatched micro-batch.", obs.BatchSizeBuckets, "tenant").With(tenant)
	s.mLatency = reg.HistogramVec("serve_request_seconds", "Label request latency.", obs.DurationBuckets, "tenant").With(tenant)

	s.loop.Add(1)
	go s.batchLoop()
	return s, nil
}

// Bundle returns the served bundle (read-only; used by the HTTP layer
// for health/provenance responses).
func (s *Server) Bundle() *bundle.Bundle { return s.b }

// Label labels texts and returns one prediction per text, in order. It
// blocks until the batch loop has processed every text (or ctx is
// cancelled). When admitting the texts would push the queue past
// Options.QueueDepth it returns ErrOverloaded immediately instead of
// blocking — admission control, not backpressure. Safe for concurrent
// use.
func (s *Server) Label(ctx context.Context, texts []string, explain bool) ([]Prediction, error) {
	if len(texts) == 0 {
		return nil, errors.New("serve: empty request")
	}
	start := time.Now()
	span := s.o.StartSpan(ctx, "serve.label")
	span.SetInt("texts", int64(len(texts)))
	defer span.End()
	if err := s.admit(len(texts)); err != nil {
		s.mReqShed.Inc()
		s.mShed.Inc()
		span.SetErr(err)
		return nil, err
	}
	s.mTexts.AddInt(len(texts))
	if s.opts.Capture != nil {
		s.opts.Capture(texts)
	}
	s.mInflight.Add(1)
	defer s.mInflight.Add(-1)

	req := &request{
		ctx:      ctx,
		examples: make([]*dataset.Example, len(texts)),
		preds:    make([]Prediction, len(texts)),
		explain:  explain,
		done:     make(chan struct{}),
	}
	for i, text := range texts {
		// E1Pos/E2Pos must be -1: zero would mark token 0 as an entity
		// mention and slice the feature window, diverging from how the
		// offline path treats plain-text examples.
		req.examples[i] = &dataset.Example{ID: -1, Text: text, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.depth.Add(-int64(len(texts)))
		s.mReqClosed.Inc()
		s.mErrClosed.Inc()
		span.SetErr(ErrClosed)
		return nil, ErrClosed
	}
	// The gauge moves by Add under s.mu, just before the send. A Set of
	// the admitted depth could land out of order with a concurrent
	// request's and leave the gauge stale; and once the gauge counts
	// these texts, the request is queued ahead of any later one and of
	// Close.
	s.mQueue.Add(float64(len(texts)))
	// Never blocks: every queued request holds at least one admitted
	// text, so the queue holds at most QueueDepth requests.
	s.queue <- req
	s.mu.Unlock()

	select {
	case <-req.done:
		s.mReqOK.Inc()
		s.mLatency.Observe(time.Since(start).Seconds())
		return req.preds, nil
	case <-ctx.Done():
		s.mReqCanceled.Inc()
		s.mErrCanceled.Inc()
		span.SetErr(ctx.Err())
		return nil, fmt.Errorf("serve: %w", ctx.Err())
	}
}

// admit reserves n queue slots, or fails with ErrOverloaded when the
// reservation would exceed QueueDepth. A request wider than the whole
// queue is admitted only against an idle queue; it is still one queue
// entry, which the batch loop serves in MaxBatch-text pieces, so memory
// stays bounded by the request itself.
func (s *Server) admit(n int) error {
	for {
		cur := s.depth.Load()
		if cur > 0 && cur+int64(n) > int64(s.opts.QueueDepth) {
			return ErrOverloaded
		}
		if s.depth.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// Close stops accepting requests, waits for queued requests to be
// answered, and shuts the batch loop down. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue) // Label sends only under mu, after checking closed
	}
	s.mu.Unlock()
	s.loop.Wait()
}

// batchLoop is the single consumer. It blocks for the first queued
// request, adds whatever else is already queued up to MaxBatch texts,
// processes that batch and repeats. A request joins a batch only if all
// its remaining texts fit; otherwise it starts the next batch, and one
// wider than MaxBatch is served in MaxBatch-text pieces. Once Close has
// closed the queue, the loop drains it and returns.
func (s *Server) batchLoop() {
	defer s.loop.Done()
	var (
		next *request // received; texts from off on are not yet batched
		off  int
	)
	for {
		if next == nil {
			var ok bool
			if next, ok = <-s.queue; !ok {
				return
			}
			off = 0
		}
		var batch []segment
		n := 0
		for next != nil {
			rest := len(next.examples) - off
			if n > 0 && n+rest > s.opts.MaxBatch {
				break
			}
			take := min(rest, s.opts.MaxBatch-n)
			batch = append(batch, segment{req: next, lo: off, hi: off + take})
			n += take
			if off += take; off < len(next.examples) {
				break
			}
			select {
			case next = <-s.queue: // nil once the queue is closed and empty
				off = 0
			default:
				next = nil
			}
		}
		s.depth.Add(-int64(n))
		s.mQueue.Add(-float64(n))
		s.process(batch, n)
	}
}

// process runs one batch of n texts through the offline hot path —
// featurize all, predict all — and distributes results to their
// requests, answering each request whose last text is in the batch. The
// label is derived from the probability row with the same strict-greater
// first-max rule as LogisticRegression.Predict (softmax is monotone, so
// the argmax is identical).
func (s *Server) process(batch []segment, n int) {
	if s.beforeBatch != nil {
		s.beforeBatch(n)
	}
	s.mBatches.Inc()
	s.mBatchSz.Observe(float64(n))
	span := s.o.Tracer.StartSpan("serve.batch")
	span.SetInt("size", int64(n))
	defer span.End()

	// Deadline-aware drop: a request whose context ended (client gone,
	// deadline blown) gets its texts discarded instead of featurized.
	// Skipping texts cannot perturb other results: the hot path is
	// per-example independent.
	corpus := make([][]string, 0, n)
	dropped := 0
	for k := range batch {
		sg := &batch[k]
		if sg.req.ctx.Err() != nil {
			dropped += sg.hi - sg.lo
			sg.lo = sg.hi
		}
		for _, e := range sg.req.examples[sg.lo:sg.hi] {
			corpus = append(corpus, e.FeatureTokens())
		}
	}
	if dropped > 0 {
		s.mDropped.AddInt(dropped)
		span.SetInt("dropped", int64(dropped))
	}
	var P [][]float64
	if len(corpus) > 0 {
		P = s.em.PredictProbaAll(s.feat.TransformAll(corpus))
	}

	i := 0
	for _, sg := range batch {
		for pos := sg.lo; pos < sg.hi; pos++ {
			row := P[i]
			i++
			best := 0
			for c := 1; c < len(row); c++ {
				if row[c] > row[best] {
					best = c
				}
			}
			pred := Prediction{Label: best, Class: s.b.Dataset.ClassNames[best], Proba: row}
			if sg.req.explain {
				js, votes := lf.ApplyAll(s.b.LFs, sg.req.examples[pos])
				pred.LFs = make([]LFVote, len(js))
				for t, j := range js {
					pred.LFs[t] = LFVote{Name: s.b.LFs[j].Name(), Vote: votes[t]}
				}
				if s.predictor != nil && len(js) > 0 {
					pred.LabelModelProba = s.predictor.Posterior(js, votes)
				}
			}
			sg.req.preds[pos] = pred
		}
		if sg.hi == len(sg.req.examples) {
			close(sg.req.done)
		}
	}
}
