package obs

import (
	"sort"
	"sync"
	"time"
)

// Streaming SLO tracking for the serving gateway. The tracker keeps,
// per tenant, a ring of fixed-duration time slices; each slice holds a
// fixed-bucket latency histogram plus request/error counts. Memory per
// tenant is therefore constant (slices × buckets), queries over any
// window up to the retention horizon are O(slices), and the whole
// structure survives unbounded traffic without resizing. Quantiles come
// from linear interpolation inside the log-spaced buckets — accurate to
// a bucket's width, which at the default doubling bounds means p99
// within ~2x, plenty for burn-rate alerting. The gateway feeds it the
// duration its gateway.request span took (obs.Elapsed), the same
// reading stage_seconds{stage="gateway.request"} holds; exact
// per-tenant latency distributions live in serve_request_seconds,
// which reads the serve.label span the same way.

// SLOOptions configures NewSLOTracker. The zero value gives 10s slices,
// 1h retention, DurationBuckets bounds, a 99.9% objective and a
// 256-tenant cap.
type SLOOptions struct {
	// Slice is the ring's time-slice width; queries are quantized to it.
	Slice time.Duration
	// Retention bounds the oldest answerable window.
	Retention time.Duration
	// Bounds are the latency bucket upper bounds in seconds.
	Bounds []float64
	// Objective is the availability target in (0, 1), e.g. 0.999; burn
	// rate is reported relative to it.
	Objective float64
	// MaxTenants caps the tenant map; beyond it, observations fold into
	// the OverflowLabelValue tenant so a tenant-ID flood stays bounded.
	MaxTenants int
	// Now overrides the clock (tests).
	Now func() time.Time
}

// WindowStats is one tenant's aggregate over one rolling window.
type WindowStats struct {
	// Window is the requested window, quantized up to whole slices.
	Window time.Duration `json:"-"`
	// WindowSeconds is the JSON form of Window.
	WindowSeconds float64 `json:"window_seconds"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	// ErrorRate is Errors/Requests (0 for an empty window).
	ErrorRate float64 `json:"error_rate"`
	// Availability is 1 - ErrorRate.
	Availability float64 `json:"availability"`
	// BurnRate is ErrorRate divided by the error budget (1-objective):
	// 1.0 burns the budget exactly at the objective's horizon, 14.4 is
	// the classic page-now threshold for a 99.9% monthly objective.
	BurnRate float64 `json:"burn_rate"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	MeanMS   float64 `json:"mean_ms"`
}

// SLOTracker aggregates per-tenant request outcomes into rolling
// windows. All methods are safe for concurrent use and nil-safe.
type SLOTracker struct {
	opts   SLOOptions
	slices int // ring length

	mu      sync.Mutex
	tenants map[string]*sloSeries
}

// sloSeries is one tenant's ring of time slices.
type sloSeries struct {
	ring []sloSlice
}

// sloSlice accumulates one slice-width of observations. epoch stamps
// which absolute slice the entry belongs to, so stale ring entries are
// recognized (and reset) lazily instead of by a sweeper goroutine.
type sloSlice struct {
	epoch  int64
	counts []uint64 // per latency bucket, +1 for overflow
	total  uint64
	errs   uint64
	sum    float64 // seconds
}

// NewSLOTracker returns a tracker with the given options (zero fields
// take the documented defaults).
func NewSLOTracker(opts SLOOptions) *SLOTracker {
	if opts.Slice <= 0 {
		opts.Slice = 10 * time.Second
	}
	if opts.Retention <= 0 {
		opts.Retention = time.Hour
	}
	if opts.Retention < opts.Slice {
		opts.Retention = opts.Slice
	}
	if len(opts.Bounds) == 0 {
		opts.Bounds = DurationBuckets
	}
	b := append([]float64(nil), opts.Bounds...)
	sort.Float64s(b)
	opts.Bounds = b
	if opts.Objective <= 0 || opts.Objective >= 1 {
		opts.Objective = 0.999
	}
	if opts.MaxTenants <= 0 {
		opts.MaxTenants = 256
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &SLOTracker{
		opts:    opts,
		slices:  int(opts.Retention / opts.Slice),
		tenants: make(map[string]*sloSeries),
	}
}

// Objective returns the configured availability target.
func (t *SLOTracker) Objective() float64 {
	if t == nil {
		return 0
	}
	return t.opts.Objective
}

// Observe records one finished request for a tenant.
func (t *SLOTracker) Observe(tenant string, seconds float64, isErr bool) {
	if t == nil {
		return
	}
	epoch := t.opts.Now().UnixNano() / int64(t.opts.Slice)
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.tenants[tenant]
	if !ok {
		if len(t.tenants) >= t.opts.MaxTenants {
			tenant = OverflowLabelValue
			s, ok = t.tenants[tenant]
		}
		if !ok {
			s = &sloSeries{ring: make([]sloSlice, t.slices)}
			t.tenants[tenant] = s
		}
	}
	sl := &s.ring[int(epoch%int64(t.slices))]
	if sl.epoch != epoch {
		sl.epoch = epoch
		if sl.counts == nil {
			sl.counts = make([]uint64, len(t.opts.Bounds)+1)
		} else {
			for i := range sl.counts {
				sl.counts[i] = 0
			}
		}
		sl.total, sl.errs, sl.sum = 0, 0, 0
	}
	sl.counts[sort.SearchFloat64s(t.opts.Bounds, seconds)]++
	sl.total++
	if isErr {
		sl.errs++
	}
	sl.sum += seconds
}

// Stats aggregates one tenant over the given windows (each quantized up
// to whole slices and clamped to retention). A tenant with no recorded
// traffic returns zero-valued stats.
func (t *SLOTracker) Stats(tenant string, windows ...time.Duration) []WindowStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statsLocked(t.tenants[tenant], windows)
}

// StatsAll aggregates every known tenant over the given windows.
func (t *SLOTracker) StatsAll(windows ...time.Duration) map[string][]WindowStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]WindowStats, len(t.tenants))
	for tenant, s := range t.tenants {
		out[tenant] = t.statsLocked(s, windows)
	}
	return out
}

func (t *SLOTracker) statsLocked(s *sloSeries, windows []time.Duration) []WindowStats {
	now := t.opts.Now().UnixNano() / int64(t.opts.Slice)
	out := make([]WindowStats, 0, len(windows))
	counts := make([]uint64, len(t.opts.Bounds)+1)
	for _, w := range windows {
		n := int((w + t.opts.Slice - 1) / t.opts.Slice)
		if n < 1 {
			n = 1
		}
		if n > t.slices {
			n = t.slices
		}
		ws := WindowStats{
			Window:        time.Duration(n) * t.opts.Slice,
			WindowSeconds: (time.Duration(n) * t.opts.Slice).Seconds(),
			Availability:  1,
		}
		for i := range counts {
			counts[i] = 0
		}
		var sum float64
		if s != nil {
			// Include the current (partial) slice plus the n-1 before it.
			for e := now - int64(n) + 1; e <= now; e++ {
				sl := &s.ring[int(((e%int64(t.slices))+int64(t.slices))%int64(t.slices))]
				if sl.epoch != e {
					continue
				}
				ws.Requests += sl.total
				ws.Errors += sl.errs
				sum += sl.sum
				for i, c := range sl.counts {
					counts[i] += c
				}
			}
		}
		if ws.Requests > 0 {
			ws.ErrorRate = float64(ws.Errors) / float64(ws.Requests)
			ws.Availability = 1 - ws.ErrorRate
			ws.BurnRate = ws.ErrorRate / (1 - t.opts.Objective)
			ws.MeanMS = sum / float64(ws.Requests) * 1000
			ws.P50MS = bucketQuantile(t.opts.Bounds, counts, ws.Requests, 0.50) * 1000
			ws.P90MS = bucketQuantile(t.opts.Bounds, counts, ws.Requests, 0.90) * 1000
			ws.P99MS = bucketQuantile(t.opts.Bounds, counts, ws.Requests, 0.99) * 1000
		}
		out = append(out, ws)
	}
	return out
}

// bucketQuantile estimates the q-quantile (in the bounds' unit, here
// seconds) from per-bucket counts by linear interpolation inside the
// target bucket — the same estimate Prometheus' histogram_quantile
// computes. The overflow bucket clamps to the largest bound.
func bucketQuantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i >= len(bounds) { // overflow bucket: clamp
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}
