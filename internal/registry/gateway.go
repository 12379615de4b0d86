package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/obs"
	"datasculpt/internal/serve"
)

// maxBundleBytes bounds bundle uploads.
const maxBundleBytes = 64 << 20

// GatewayOptions configures the HTTP surface.
type GatewayOptions struct {
	// DefaultTenant answers the bare /v1/label alias (default "default").
	DefaultTenant string
	// Ring, when non-nil, enables tenant sharding: requests for tenants
	// owned by another replica get 421 with a shard hint instead of an
	// answer. SelfShard is this replica's index on the ring; Peers[i],
	// when provided, is advertised as replica i's address in the hint.
	Ring      *Ring
	SelfShard int
	Peers     []string
	// MaxLabelBytes bounds label request bodies (default 1 MiB).
	MaxLabelBytes int64
	// AccessLog emits one structured log line per request (-access-log).
	// Off by default: at thousands of requests per second the log
	// stream itself becomes the bottleneck.
	AccessLog bool
	// AccessLogMaxPerSec rate-caps access log lines (default 200/s);
	// requests beyond the cap are served normally but not logged, and
	// the suppressed count rides along on the next emitted line.
	AccessLogMaxPerSec int
	// SLOObjective is the availability target /v1/stats reports burn
	// rates against (default 0.999).
	SLOObjective float64
	// Growth, when set, supplies the growth daemon's status payload for
	// GET /v1/growth (typed any to avoid importing internal/growth,
	// which depends on this package). Nil answers 404 growth_disabled.
	Growth func() any
}

func (o GatewayOptions) withDefaults() GatewayOptions {
	if o.DefaultTenant == "" {
		o.DefaultTenant = "default"
	}
	if o.MaxLabelBytes <= 0 {
		o.MaxLabelBytes = 1 << 20
	}
	if o.AccessLogMaxPerSec <= 0 {
		o.AccessLogMaxPerSec = 200
	}
	if o.SLOObjective <= 0 || o.SLOObjective >= 1 {
		o.SLOObjective = 0.999
	}
	return o
}

// Gateway is the daemon's HTTP surface over a Registry:
//
//	POST /v1/tenants/{tenant}/label   — label one text or a batch
//	POST /v1/label                    — alias for the default tenant
//	GET  /v1/bundles                  — registered bundles + provenance
//	POST /v1/bundles/{tenant}         — upload + promote (shadow-gated;
//	                                    ?force=true skips the gate)
//	POST /v1/bundles/{tenant}/rollback — return to the previous bundle
//	GET  /healthz                     — liveness + registry/shard summary
//	GET  /metrics                     — Prometheus text exposition
//
// Every error is the uniform envelope {"error":{"code","message"}}
// (plus "shard_hint" on 421) with a correct status code.
type Gateway struct {
	reg *Registry
	o   *obs.Obs
	// clock starts the request spans whose stage clock the SLO tracker
	// and access log read: o, or when o has no metrics registry a bundle
	// over a private one, so their latencies stay real.
	clock *obs.Obs
	opts  GatewayOptions
	slo   *obs.SLOTracker

	mMisdirected *obs.Counter
	mHTTP        *obs.CounterVec

	// logMu guards the access-log rate cap: emitted counts the lines in
	// the current one-second window, suppressed the requests the cap
	// swallowed since the last emitted line.
	logMu      sync.Mutex
	logWindow  int64
	emitted    int
	suppressed int
}

// NewGateway wires the HTTP surface around a registry. The obs bundle
// may be nil (telemetry disabled).
func NewGateway(reg *Registry, o *obs.Obs, opts GatewayOptions) *Gateway {
	if o == nil {
		o = obs.Default()
	}
	g := &Gateway{reg: reg, o: o, clock: o, opts: opts.withDefaults()}
	if o.Metrics == nil {
		g.clock = obs.New(o.Tracer, obs.NewRegistry(), o.Logger)
	}
	g.slo = obs.NewSLOTracker(obs.SLOOptions{Objective: g.opts.SLOObjective})
	g.mMisdirected = o.Metrics.Counter("serve_misdirected_total",
		"Requests for tenants owned by another shard (answered 421).")
	g.mHTTP = o.Metrics.CounterVec("serve_http_requests_total",
		"Gateway HTTP requests, by route and status code.", "route", "code")
	return g
}

// labelRequest is the label endpoint body: exactly one of text / texts.
type labelRequest struct {
	Text    string   `json:"text"`
	Texts   []string `json:"texts"`
	Explain bool     `json:"explain"`
}

// labelResponse is the label endpoint body on success. Prediction is
// set for single-text requests, Predictions (in request order) for
// batch requests.
type labelResponse struct {
	Tenant      string             `json:"tenant"`
	Prediction  *serve.Prediction  `json:"prediction,omitempty"`
	Predictions []serve.Prediction `json:"predictions,omitempty"`
}

// ShardHint tells a misdirected client which replica owns the tenant.
type ShardHint struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr,omitempty"`
}

type apiError struct {
	Code      string     `json:"code"`
	Message   string     `json:"message"`
	ShardHint *ShardHint `json:"shard_hint,omitempty"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

type healthResponse struct {
	Status   string `json:"status"`
	Tenants  int    `json:"tenants"`
	Resident int    `json:"resident"`
	Shard    int    `json:"shard"`
	Replicas int    `json:"replicas"`
}

// Handler returns the gateway's mux, wrapped in the observability
// middleware (request IDs, trace propagation, per-route metrics, SLO
// accounting, optional access logs).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/label", methods("POST", func(w http.ResponseWriter, r *http.Request) {
		g.handleLabel(w, r, g.opts.DefaultTenant)
	}))
	mux.HandleFunc("/v1/tenants/{tenant}/label", methods("POST", func(w http.ResponseWriter, r *http.Request) {
		g.handleLabel(w, r, r.PathValue("tenant"))
	}))
	mux.HandleFunc("/v1/bundles", methods("GET", g.handleBundles))
	mux.HandleFunc("/v1/bundles/{tenant}", methods("POST", g.handlePromote))
	mux.HandleFunc("/v1/bundles/{tenant}/rollback", methods("POST", g.handleRollback))
	mux.HandleFunc("/v1/stats", methods("GET", g.handleStats))
	mux.HandleFunc("/v1/growth", methods("GET", g.handleGrowth))
	mux.HandleFunc("/healthz", methods("GET", g.handleHealth))
	mux.HandleFunc("/metrics", methods("GET", g.handleMetrics))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "no route for %s", r.URL.Path)
	})
	return g.instrument(mux)
}

// gwMeta carries what a handler learns about its request (which tenant,
// how many texts) back out to the middleware that opened the span.
type gwMeta struct {
	tenant string
	texts  int
}

type gwMetaKey struct{}

func metaFrom(ctx context.Context) *gwMeta {
	m, _ := ctx.Value(gwMetaKey{}).(*gwMeta)
	return m
}

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// routeLabel maps a request path to the bounded route label of
// serve_http_requests_total — the path itself (tenant IDs, typos) must
// never become a label value.
func routeLabel(path string) string {
	switch {
	case path == "/v1/label" || (strings.HasPrefix(path, "/v1/tenants/") && strings.HasSuffix(path, "/label")):
		return "label"
	case path == "/v1/bundles":
		return "bundles"
	case strings.HasPrefix(path, "/v1/bundles/") && strings.HasSuffix(path, "/rollback"):
		return "rollback"
	case strings.HasPrefix(path, "/v1/bundles/"):
		return "promote"
	case path == "/v1/stats":
		return "stats"
	case path == "/v1/growth":
		return "growth"
	case path == "/healthz":
		return "health"
	case path == "/metrics":
		return "metrics"
	}
	return "other"
}

// instrument wraps the mux with the per-request observability pipeline:
//
//  1. resolve a request ID (echo a sane incoming X-Request-Id, else
//     mint one) and a trace ID (join an incoming W3C traceparent, else
//     mint one), and echo both on the response;
//  2. open the gateway.request root span under that trace ID and put it
//     on the context, so the coalescer's serve.label span nests under it;
//  3. after the handler: per-route/status counters, per-tenant SLO
//     accounting, and the optional rate-capped access log line.
func (g *Gateway) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if rid == "" {
			rid = obs.NewRequestID()
		}
		traceID, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			traceID = obs.NewTraceID()
		}
		w.Header().Set("X-Request-Id", rid)
		// The traceparent's parent-id field must be exactly 16 hex
		// digits; an echoed client request ID of another shape cannot be
		// reused there without producing an unparseable header.
		parentID := rid
		if !obs.IsHexID(parentID, 16) {
			parentID = obs.NewRequestID()
		}
		w.Header().Set("Traceparent", obs.FormatTraceparent(traceID, parentID))

		span := g.clock.StartTrace(traceID, "gateway.request")
		span.SetStr("request_id", rid)

		meta := &gwMeta{}
		ctx := context.WithValue(r.Context(), gwMetaKey{}, meta)
		ctx = obs.ContextWithSpan(ctx, span)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))

		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := routeLabel(r.URL.Path)
		span.SetStr("route", route)
		span.SetInt("status", int64(sw.status))
		if meta.tenant != "" {
			span.SetStr("tenant", meta.tenant)
		}
		if meta.texts > 0 {
			span.SetInt("texts", int64(meta.texts))
		}
		if sw.status >= 500 {
			span.SetErr(fmt.Errorf("http %d", sw.status))
		}
		span.End()
		dur := obs.Elapsed(span)

		g.mHTTP.With(route, strconv.Itoa(sw.status)).Inc()
		if meta.tenant != "" {
			g.slo.Observe(meta.tenant, dur.Seconds(), sw.status >= 500)
		}
		if g.opts.AccessLog {
			g.accessLog(r, sw, meta, rid, traceID, dur)
		}
	})
}

// accessLog emits one structured line for the request, enforcing the
// per-second cap.
func (g *Gateway) accessLog(r *http.Request, sw *statusWriter, meta *gwMeta, rid, traceID string, dur time.Duration) {
	now := time.Now().Unix()
	g.logMu.Lock()
	if now != g.logWindow {
		g.logWindow, g.emitted = now, 0
	}
	if g.emitted >= g.opts.AccessLogMaxPerSec {
		g.suppressed++
		g.logMu.Unlock()
		return
	}
	g.emitted++
	suppressed := g.suppressed
	g.suppressed = 0
	g.logMu.Unlock()

	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"route", routeLabel(r.URL.Path),
		"status", sw.status,
		"bytes", sw.bytes,
		"duration_ms", float64(dur) / float64(time.Millisecond),
		"request_id", rid,
		"trace_id", traceID,
	}
	if meta.tenant != "" {
		attrs = append(attrs, "tenant", meta.tenant)
	}
	if meta.texts > 0 {
		attrs = append(attrs, "texts", meta.texts)
	}
	if suppressed > 0 {
		attrs = append(attrs, "suppressed", suppressed)
	}
	g.o.Logger.Info("access", attrs...)
}

// sanitizeRequestID accepts a caller-supplied request ID only when it is
// short and header/log-safe; anything else is replaced with a minted ID.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return ""
		}
	}
	return id
}

// methods guards a handler: non-matching verbs get 405 with an Allow
// header and the uniform envelope (the stdlib mux's built-in 405 writes
// a plain-text body, so method dispatch stays out of the patterns).
func methods(allow string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		for _, m := range strings.Split(allow, ", ") {
			if r.Method == m {
				h(w, r)
				return
			}
		}
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"%s is not allowed here; use %s", r.Method, allow)
	}
}

// checkShard enforces consistent-hash tenant ownership: a request for a
// tenant another replica owns is answered 421 with a shard hint, and
// the client (or a routing proxy) retries against the right replica.
func (g *Gateway) checkShard(w http.ResponseWriter, tenant string) bool {
	if g.opts.Ring == nil {
		return true
	}
	owner := g.opts.Ring.Owner(tenant)
	if owner == g.opts.SelfShard {
		return true
	}
	g.mMisdirected.Inc()
	hint := &ShardHint{Shard: owner}
	if owner >= 0 && owner < len(g.opts.Peers) {
		hint.Addr = g.opts.Peers[owner]
	}
	writeErrorHint(w, http.StatusMisdirectedRequest, "wrong_shard", hint,
		"tenant %q is served by replica %d of %d", tenant, owner, g.opts.Ring.Replicas())
	return false
}

func (g *Gateway) handleLabel(w http.ResponseWriter, r *http.Request, tenant string) {
	if m := metaFrom(r.Context()); m != nil {
		m.tenant = tenant
	}
	if !g.checkShard(w, tenant) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, g.opts.MaxLabelBytes)
	var req labelRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", "decoding request: %v", err)
		return
	}
	single := req.Text != ""
	if single == (len(req.Texts) > 0) {
		writeError(w, http.StatusBadRequest, "bad_request", `provide exactly one of "text" and "texts"`)
		return
	}
	texts := req.Texts
	if single {
		texts = []string{req.Text}
	}
	if m := metaFrom(r.Context()); m != nil {
		m.texts = len(texts)
	}
	preds, err := g.reg.Label(r.Context(), tenant, texts, req.Explain)
	if err != nil {
		g.writeLabelError(w, tenant, err)
		return
	}
	resp := labelResponse{Tenant: tenant}
	if single {
		resp.Prediction = &preds[0]
	} else {
		resp.Predictions = preds
	}
	writeJSON(w, resp)
}

func (g *Gateway) writeLabelError(w http.ResponseWriter, tenant string, err error) {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		writeError(w, http.StatusNotFound, "unknown_tenant", "tenant %q is not registered", tenant)
	case errors.Is(err, serve.ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, "overloaded",
			"coalescer queue is full; retry with backoff")
	case errors.Is(err, serve.ErrClosed), errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "unavailable", "server is shutting down")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone or out of time; the body is written for
		// completeness but usually unread.
		writeError(w, http.StatusServiceUnavailable, "deadline", "request context ended: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

func (g *Gateway) handleBundles(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"bundles": g.reg.List()})
}

func (g *Gateway) handlePromote(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if !g.checkShard(w, tenant) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBundleBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"bundle exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return
	}
	b := new(bundle.Bundle)
	if err := json.Unmarshal(data, b); err != nil {
		writeError(w, http.StatusBadRequest, "bad_bundle", "%v", err)
		return
	}
	force := r.URL.Query().Get("force") == "true" || r.URL.Query().Get("force") == "1"
	rep, err := g.reg.Promote(tenant, b, force)
	switch {
	case errors.Is(err, ErrShadowGate):
		writeError(w, http.StatusConflict, "shadow_rejected",
			"candidate agrees with incumbent on only %.1f%% of %d recent texts (floor %.1f%%); retrain or promote with ?force=true",
			rep.Agreement*100, rep.ShadowSample, g.reg.opts.ShadowAgreement*100)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "unavailable", "server is shutting down")
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad_bundle", "%v", err)
	default:
		writeJSON(w, rep)
	}
}

func (g *Gateway) handleRollback(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if !g.checkShard(w, tenant) {
		return
	}
	rep, err := g.reg.Rollback(tenant)
	switch {
	case errors.Is(err, ErrUnknownTenant):
		writeError(w, http.StatusNotFound, "unknown_tenant", "tenant %q is not registered", tenant)
	case errors.Is(err, ErrNoPrevious):
		writeError(w, http.StatusConflict, "no_previous", "tenant %q has no previous bundle", tenant)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "unavailable", "server is shutting down")
	case err != nil:
		// The client named a tenant and nothing else: any other failure
		// (say, a rollback target file that no longer loads) is ours.
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	default:
		writeJSON(w, rep)
	}
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	resident := 0
	infos := g.reg.List()
	for _, info := range infos {
		if info.Resident {
			resident++
		}
	}
	writeJSON(w, healthResponse{
		Status:   "ok",
		Tenants:  len(infos),
		Resident: resident,
		Shard:    g.opts.SelfShard,
		Replicas: g.opts.Ring.Replicas(),
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if g.o.Metrics == nil {
		writeError(w, http.StatusNotFound, "not_found", "metrics registry disabled")
		return
	}
	obs.SetRuntimeGauges(g.o.Metrics)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.o.Metrics.WritePrometheus(w) //nolint:errcheck — client went away
}

// sloWindows are the rolling windows /v1/stats reports.
var sloWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// statsResponse is the /v1/stats body: per-tenant SLO windows plus a
// runtime health snapshot.
type statsResponse struct {
	Objective float64                      `json:"objective"`
	Windows   []string                     `json:"windows"`
	Tenants   map[string][]obs.WindowStats `json:"tenants"`
	Runtime   obs.RuntimeSnapshot          `json:"runtime"`
	Sampler   *obs.SamplerStats            `json:"trace_sampler,omitempty"`
}

// handleGrowth reports the growth daemon's status, or 404 when no
// daemon is wired in (growth disabled or not configured for this
// replica).
func (g *Gateway) handleGrowth(w http.ResponseWriter, r *http.Request) {
	if g.opts.Growth == nil {
		writeError(w, http.StatusNotFound, "growth_disabled", "no growth daemon is running")
		return
	}
	writeJSON(w, g.opts.Growth())
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Objective: g.slo.Objective(),
		Windows:   make([]string, len(sloWindows)),
		Tenants:   g.slo.StatsAll(sloWindows...),
		Runtime:   obs.ReadRuntime(),
	}
	for i, win := range sloWindows {
		resp.Windows[i] = win.String()
	}
	if st, ok := g.o.Tracer.(*obs.SampledTracer); ok {
		s := st.Stats()
		resp.Sampler = &s
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck — client went away
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeErrorHint(w, status, code, nil, format, args...)
}

func writeErrorHint(w http.ResponseWriter, status int, code string, hint *ShardHint, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	//nolint:errcheck — client went away
	json.NewEncoder(w).Encode(errorEnvelope{Error: apiError{
		Code: code, Message: fmt.Sprintf(format, args...), ShardHint: hint,
	}})
}
