// Package registry is the multi-tenant serving layer of DataSculpt-Go:
// it maps tenant IDs to loaded model bundles, keeps an LRU of mapped
// bundles so memory stays bounded as the tenant set grows, hot-swaps
// bundles atomically with zero downtime (promote with a shadow-score
// gate, roll back to the previous artifact), and shards tenants across
// daemon replicas with a consistent-hash ring.
//
// Residency model: a registered tenant always answers, but only
// MaxResident tenants keep a live coalescer (a serve.Server) mapped at
// once. Each mapped server lives behind a refcounted handle — the
// registry holds one reference, every in-flight Label holds another —
// so an eviction or hot-swap never interrupts a request: the old
// server drains and closes only after its last reference is released,
// while new requests already route to the new one.
package registry

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"datasculpt/internal/bundle"
	"datasculpt/internal/obs"
	"datasculpt/internal/serve"
)

var (
	// ErrUnknownTenant is returned for tenants never registered.
	ErrUnknownTenant = errors.New("registry: unknown tenant")
	// ErrShadowGate is returned by Promote when the candidate bundle
	// disagrees with the incumbent on too much recent traffic.
	ErrShadowGate = errors.New("registry: shadow gate rejected bundle")
	// ErrNoPrevious is returned by Rollback when the tenant has no
	// earlier bundle to return to.
	ErrNoPrevious = errors.New("registry: no previous bundle to roll back to")
	// ErrClosed is returned once Close has begun.
	ErrClosed = errors.New("registry: closed")
)

// Options tunes the registry.
type Options struct {
	// MaxResident caps how many tenants keep a mapped serve.Server at
	// once (default 8). Evicted tenants are remapped on demand.
	MaxResident int
	// Serve is the coalescer configuration every tenant server runs with.
	Serve serve.Options
	// ShadowSample is the per-tenant ring buffer of recent request texts
	// kept for shadow-scoring promotions (default 256; 0 keeps the
	// buffer empty, which disables the gate).
	ShadowSample int
	// ShadowAgreement is the minimum fraction of the shadow sample on
	// which a candidate bundle must agree with the incumbent to be
	// promoted without force (default 0.9).
	ShadowAgreement float64
	// Capture, when set, observes every admitted request's texts with
	// the tenant they were served for — the feed for the online growth
	// loop's reservoir. It runs on the request goroutine, so it must be
	// cheap and must not retain the slice past the call.
	Capture func(tenant string, texts []string)
}

func (o Options) withDefaults() Options {
	if o.MaxResident <= 0 {
		o.MaxResident = 8
	}
	if o.ShadowSample < 0 {
		o.ShadowSample = 0
	} else if o.ShadowSample == 0 {
		o.ShadowSample = 256
	}
	if o.ShadowAgreement <= 0 {
		o.ShadowAgreement = 0.9
	}
	return o
}

// Info describes one registered bundle for the listing API.
type Info struct {
	Tenant     string            `json:"tenant"`
	Resident   bool              `json:"resident"`
	Source     string            `json:"source"`
	Generation int               `json:"generation"`
	Dataset    string            `json:"dataset"`
	Task       string            `json:"task"`
	ClassNames []string          `json:"class_names"`
	NumLFs     int               `json:"num_lfs"`
	Provenance bundle.Provenance `json:"provenance"`
}

// PromoteReport is the outcome of a Promote or Rollback: the tenant's
// new generation and, when the shadow gate ran, what it measured.
type PromoteReport struct {
	Tenant     string `json:"tenant"`
	Generation int    `json:"generation"`
	// Gated reports whether the shadow gate actually scored the
	// candidate (it needs an incumbent server and recent traffic).
	Gated bool `json:"gated"`
	// ShadowSample is how many recent texts were scored; Agreement the
	// fraction on which candidate and incumbent predicted the same class.
	ShadowSample int     `json:"shadow_sample"`
	Agreement    float64 `json:"agreement"`
}

// handle is one mapped serve.Server plus its reference count. It is
// created with one reference (the registry's); every in-flight request
// takes another. When the count hits zero the server is closed, which
// drains its queue, and the registry's server count drops by one.
type handle struct {
	srv     *serve.Server
	b       *bundle.Bundle
	refs    atomic.Int64
	servers *sync.WaitGroup
}

// acquire takes a reference; it fails (false) once the count has hit
// zero — the handle is already closing and must not be revived.
func (h *handle) acquire() bool {
	for {
		n := h.refs.Load()
		if n <= 0 {
			return false
		}
		if h.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (h *handle) release() {
	if h.refs.Add(-1) == 0 {
		h.srv.Close()
		h.servers.Done()
	}
}

// artifact is a bundle the registry can serve again: one held in memory
// (uploads, promotions, a displaced server's bundle) or a file to reload.
// The zero artifact is none.
type artifact struct {
	b    *bundle.Bundle
	path string
}

func (a artifact) load() (*bundle.Bundle, error) {
	if a.b != nil {
		return a.b, nil
	}
	return bundle.Load(a.path)
}

// entry is one registered tenant.
type entry struct {
	tenant string

	// mu serializes mapping, promotion, and rollback for this tenant.
	// The Label fast path does not take it.
	mu sync.Mutex
	// cur is the mapped server, nil when evicted or not yet loaded.
	cur atomic.Pointer[handle]
	// art is what a remap serves; prev is what Rollback returns to (the
	// zero artifact when there is nothing to roll back to).
	art, prev artifact
	gen       int
	info      atomic.Pointer[Info]

	// recent is a ring buffer of the tenant's latest request texts —
	// the shadow-scoring sample for promotions.
	recentMu sync.Mutex
	recent   []string
	recentN  int

	lastUsed int64 // LRU clock; guarded by Registry.mu
}

func (e *entry) setInfo(b *bundle.Bundle, source string, gen int) {
	e.info.Store(&Info{
		Tenant:     e.tenant,
		Source:     source,
		Generation: gen,
		Dataset:    b.Dataset.Name,
		Task:       b.Dataset.Task,
		ClassNames: append([]string(nil), b.Dataset.ClassNames...),
		NumLFs:     len(b.LFs),
		Provenance: b.Provenance,
	})
}

func (e *entry) recordRecent(texts []string, cap int) {
	if cap <= 0 {
		return
	}
	e.recentMu.Lock()
	for _, t := range texts {
		if len(e.recent) < cap {
			e.recent = append(e.recent, t)
		} else {
			e.recent[e.recentN%cap] = t
		}
		e.recentN++
	}
	e.recentMu.Unlock()
}

func (e *entry) sampleRecent() []string {
	e.recentMu.Lock()
	defer e.recentMu.Unlock()
	return append([]string(nil), e.recent...)
}

// Registry maps tenants to bundles and serves them. Safe for
// concurrent use.
type Registry struct {
	opts Options
	o    *obs.Obs

	mu      sync.Mutex
	tenants map[string]*entry
	order   []string // registration order, for stable listings
	clock   int64
	closed  bool
	// servers counts the servers this registry created and has not yet
	// closed; Close waits for it to reach zero.
	servers sync.WaitGroup

	mLoads     *obs.CounterVec
	mEvictions *obs.CounterVec
	mSwaps     *obs.CounterVec
	mRollbacks *obs.CounterVec
	mShadowRej *obs.CounterVec
	mResident  *obs.Gauge
	mTenants   *obs.Gauge
}

// New builds an empty registry. The obs bundle may be nil (telemetry
// disabled).
func New(o *obs.Obs, opts Options) *Registry {
	if o == nil {
		o = obs.Default()
	}
	r := &Registry{
		opts:    opts.withDefaults(),
		o:       o,
		tenants: make(map[string]*entry),
	}
	reg := o.Metrics
	r.mLoads = reg.CounterVec("serve_bundle_loads_total", "Bundles mapped into a live server (registrations, reloads, promotions).", "tenant")
	r.mEvictions = reg.CounterVec("serve_bundle_evictions_total", "Resident bundles unmapped by the LRU.", "tenant")
	r.mSwaps = reg.CounterVec("serve_bundle_swaps_total", "Hot-swap promotions applied.", "tenant")
	r.mRollbacks = reg.CounterVec("serve_bundle_rollbacks_total", "Rollbacks applied.", "tenant")
	r.mShadowRej = reg.CounterVec("serve_shadow_rejects_total", "Promotions rejected by the shadow-score gate.", "tenant")
	r.mResident = reg.Gauge("serve_bundles_resident", "Tenants with a mapped server right now.")
	r.mTenants = reg.Gauge("serve_tenants", "Registered tenants.")
	return r
}

// serveOpts returns the shared coalescer configuration stamped with the
// tenant, so every serve.Server emits tenant-labeled metrics.
func (r *Registry) serveOpts(tenant string) serve.Options {
	o := r.opts.Serve
	o.Tenant = tenant
	if cap := r.opts.Capture; cap != nil {
		o.Capture = func(texts []string) { cap(tenant, texts) }
	}
	return o
}

func validTenant(tenant string) error {
	if tenant == "" {
		return errors.New("registry: empty tenant id")
	}
	if strings.ContainsAny(tenant, "/ \t\n") {
		return fmt.Errorf("registry: tenant id %q contains a separator", tenant)
	}
	return nil
}

// Register maps a tenant to a bundle file. The bundle is loaded and
// validated eagerly (a broken artifact fails registration, not the
// first request) but may be evicted and reloaded from path later.
func (r *Registry) Register(tenant, path string) error {
	b, err := bundle.Load(path)
	if err != nil {
		return err
	}
	return r.install(tenant, b, artifact{path: path}, path)
}

// RegisterBundle maps a tenant to an in-memory bundle, which stays
// pinned (evictions close its server but keep the bundle). The registry
// only reads the bundle, so the caller may keep reading it too, and may
// register the same *Bundle under several tenants.
func (r *Registry) RegisterBundle(tenant string, b *bundle.Bundle) error {
	if b == nil {
		return errors.New("registry: nil bundle")
	}
	if err := b.Validate(); err != nil {
		return err
	}
	return r.install(tenant, b, artifact{b: b}, "inline")
}

// install registers a new tenant serving b, which was loaded from art.
func (r *Registry) install(tenant string, b *bundle.Bundle, art artifact, source string) error {
	if err := validTenant(tenant); err != nil {
		return err
	}
	e := &entry{tenant: tenant, art: art}
	e.mu.Lock()
	defer e.mu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if _, exists := r.tenants[tenant]; exists {
		r.mu.Unlock()
		return fmt.Errorf("registry: tenant %q already registered", tenant)
	}
	r.tenants[tenant] = e
	r.order = append(r.order, tenant)
	r.clock++
	e.lastUsed = r.clock
	r.mTenants.Set(float64(len(r.tenants)))
	r.mu.Unlock()

	if _, err := r.mapIn(e, b); err != nil {
		r.mu.Lock()
		delete(r.tenants, tenant)
		r.order = slices.DeleteFunc(r.order, func(t string) bool { return t == tenant })
		r.mTenants.Set(float64(len(r.tenants)))
		r.mu.Unlock()
		return err
	}
	e.setInfo(b, source, 0)
	return nil
}

// Tenants returns the registered tenant IDs in registration order.
func (r *Registry) Tenants() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// List describes every registered bundle, in registration order.
func (r *Registry) List() []Info {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.order))
	for _, t := range r.order {
		entries = append(entries, r.tenants[t])
	}
	r.mu.Unlock()
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		info := e.info.Load()
		if info == nil {
			continue
		}
		cp := *info
		cp.Resident = e.cur.Load() != nil
		out = append(out, cp)
	}
	return out
}

// Label routes one labeling request to the tenant's server, mapping the
// bundle in first if the LRU had evicted it. The texts are recorded in
// the tenant's shadow sample.
func (r *Registry) Label(ctx context.Context, tenant string, texts []string, explain bool) ([]serve.Prediction, error) {
	h, e, err := r.acquireServer(tenant)
	if err != nil {
		return nil, err
	}
	defer h.release()
	e.recordRecent(texts, r.opts.ShadowSample)
	return h.srv.Label(ctx, texts, explain)
}

// touch looks a tenant up and marks it used for the LRU.
func (r *Registry) touch(tenant string) (*entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	e := r.tenants[tenant]
	if e == nil {
		return nil, ErrUnknownTenant
	}
	r.clock++
	e.lastUsed = r.clock
	return e, nil
}

// acquireServer returns a referenced handle for the tenant's current
// server; the caller must release it.
func (r *Registry) acquireServer(tenant string) (*handle, *entry, error) {
	e, err := r.touch(tenant)
	if err != nil {
		return nil, nil, err
	}
	for {
		if h := e.cur.Load(); h != nil && h.acquire() {
			return h, e, nil
		}
		e.mu.Lock()
		h := e.cur.Load()
		if h == nil {
			var b *bundle.Bundle
			if b, err = e.art.load(); err == nil {
				h, err = r.mapIn(e, b)
			}
			if err != nil {
				e.mu.Unlock()
				return nil, nil, err
			}
		}
		ok := h.acquire()
		e.mu.Unlock()
		if ok {
			return h, e, nil
		}
		// The server was evicted by a racing tenant storm before we
		// could take a reference; take the slow path again.
	}
}

// mapIn (entry.mu held) serves b and makes it the tenant's current
// server, releasing the server it displaces, if any. It fails with
// ErrClosed once Close has begun, so Close never misses a server.
func (r *Registry) mapIn(e *entry, b *bundle.Bundle) (*handle, error) {
	srv, err := serve.New(b, r.o, r.serveOpts(e.tenant))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	closed := r.closed
	if !closed {
		r.servers.Add(1)
	}
	r.mu.Unlock()
	if closed {
		srv.Close()
		return nil, ErrClosed
	}
	h := &handle{srv: srv, b: b, servers: &r.servers}
	h.refs.Store(1)
	if old := e.cur.Swap(h); old != nil {
		old.release()
	}
	r.mLoads.With(e.tenant).Inc()
	r.rebalance(e)
	return h, nil
}

// rebalance evicts least-recently-used resident tenants (never keep)
// until at most MaxResident servers are mapped. Handles are released
// outside the registry lock; each closes once its in-flight requests
// drain.
func (r *Registry) rebalance(keep *entry) {
	var releases []*handle
	r.mu.Lock()
	resident := 0
	for _, e := range r.tenants {
		if e.cur.Load() != nil {
			resident++
		}
	}
	for resident > r.opts.MaxResident {
		var victim *entry
		for _, e := range r.tenants {
			if e == keep {
				continue
			}
			if e.cur.Load() == nil {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		h := victim.cur.Load()
		if h == nil || !victim.cur.CompareAndSwap(h, nil) {
			continue // lost a race with a swap on this entry; re-count
		}
		resident--
		r.mEvictions.With(victim.tenant).Inc()
		releases = append(releases, h)
	}
	r.mResident.Set(float64(resident))
	r.mu.Unlock()
	for _, h := range releases {
		h.release()
	}
}

// Promote hot-swaps the tenant's bundle for nb with zero downtime:
// in-flight requests finish on the old server, new requests route to
// the new one the moment the pointer swaps. Unless force is set, a
// shadow gate first replays the tenant's recent traffic sample through
// both bundles and rejects the candidate (ErrShadowGate, with the
// report carrying the measured agreement) when they disagree on more
// than 1-ShadowAgreement of it. Promoting an unregistered tenant
// registers it.
func (r *Registry) Promote(tenant string, nb *bundle.Bundle, force bool) (*PromoteReport, error) {
	if nb == nil {
		return nil, errors.New("registry: nil bundle")
	}
	if err := nb.Validate(); err != nil {
		return nil, err
	}
	e, err := r.touch(tenant)
	if errors.Is(err, ErrUnknownTenant) {
		if err := r.install(tenant, nb, artifact{b: nb}, "api-promote"); err != nil {
			return nil, err
		}
		return &PromoteReport{Tenant: tenant}, nil
	}
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	rep := &PromoteReport{Tenant: tenant}
	if old := e.cur.Load(); !force && old != nil {
		if sample := e.sampleRecent(); len(sample) > 0 {
			rep.Gated = true
			rep.ShadowSample = len(sample)
			rep.Agreement = bundle.Agreement(old.b, nb, sample)
			if rep.Agreement < r.opts.ShadowAgreement {
				r.mShadowRej.With(tenant).Inc()
				return rep, ErrShadowGate
			}
		}
	}
	if err := r.swap(e, nb, artifact{b: nb}, "api-promote"); err != nil {
		return nil, err
	}
	r.mSwaps.With(tenant).Inc()
	rep.Generation = e.gen
	return rep, nil
}

// Rollback re-promotes the tenant's previous bundle (the one the last
// Promote or Rollback displaced), without a shadow gate and with the
// same zero downtime. The displaced current bundle becomes the new
// rollback target, so two rollbacks toggle between the last two
// artifacts. A failed Rollback leaves the current server in place.
func (r *Registry) Rollback(tenant string) (*PromoteReport, error) {
	e, err := r.touch(tenant)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prev == (artifact{}) {
		return nil, ErrNoPrevious
	}
	pb, err := e.prev.load()
	if err != nil {
		return nil, err
	}
	if err := r.swap(e, pb, e.prev, "rollback"); err != nil {
		return nil, err
	}
	r.mRollbacks.With(tenant).Inc()
	return &PromoteReport{Tenant: tenant, Generation: e.gen}, nil
}

// swap (entry.mu held) is the one path Promote and Rollback replace a
// tenant's bundle by: it maps b (loaded from art) in place of the
// current server, makes the displaced artifact the rollback target and
// bumps the generation. A mapped server's bundle is held in memory, so
// rolling back to it needs no reload.
func (r *Registry) swap(e *entry, b *bundle.Bundle, art artifact, source string) error {
	displaced := e.art
	if old := e.cur.Load(); old != nil {
		displaced = artifact{b: old.b}
	}
	if _, err := r.mapIn(e, b); err != nil {
		return err
	}
	e.art, e.prev = art, displaced
	e.gen++
	e.setInfo(b, source, e.gen)
	return nil
}

// Close unmaps every tenant and waits for every server the registry
// created to drain its in-flight requests and close. Further calls
// return ErrClosed. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	entries := make([]*entry, 0, len(r.tenants))
	for _, e := range r.tenants {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	for _, e := range entries {
		// entry.mu waits out a mapIn that passed its closed check.
		e.mu.Lock()
		if h := e.cur.Swap(nil); h != nil {
			h.release()
		}
		e.mu.Unlock()
	}
	r.rebalance(nil)
	r.servers.Wait()
}
