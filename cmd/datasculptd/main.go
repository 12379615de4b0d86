// Command datasculptd serves trained model bundles over HTTP: load the
// artifacts `datasculpt -save-bundle` runs produced, map them to
// tenants, and label texts online through the same code path — bit-
// identical results included — that the offline evaluator uses.
//
//	datasculpt -dataset youtube -save-bundle spam.json
//	datasculptd -bundle spam.json -tenant acme=spam.json -addr :8080
//	curl -s localhost:8080/v1/tenants/acme/label -d '{"text": "subscribe!", "explain": true}'
//	curl -s localhost:8080/v1/label -d '{"text": "subscribe!"}'   # default tenant
//	curl -s localhost:8080/v1/bundles                             # provenance listing
//	curl -s localhost:8080/v1/bundles/acme --data-binary @new.json # shadow-gated hot-swap
//
// With -grow-interval the daemon also keeps learning while it serves:
// a background growth loop samples served texts into a bounded
// reservoir, periodically re-runs the select→prompt→filter pipeline
// over them, and promotes the grown bundle through the shadow-gated
// hot-swap path — rolling back automatically on regression. Its state
// (-grow-state-dir) is durable JSONL: a killed daemon resumes the
// interrupted cycle and produces a byte-identical candidate.
//
//	datasculptd -bundle spam.json -grow-interval 10m -grow-state-dir /var/lib/datasculpt/growth
//	curl -s localhost:8080/v1/growth                              # growth status + cycle journal
//
// The daemon is one replica of a shardable fleet: with -replicas N and
// -replica-index I it answers only the tenants a consistent-hash ring
// assigns to shard I and redirects the rest with 421 + a shard hint
// (-peers advertises replica addresses in the hint). Incoming requests
// wait in a bounded admission queue (-queue-depth; overload sheds 429
// instead of queueing without bound), and each micro-batch takes
// whatever is queued when the previous one finishes, up to -max-batch
// texts, so no request waits on a timer. At most -max-resident tenant
// servers stay mapped at once, and /metrics exposes the serve_*
// counters, histograms and gauges — dimensional by tenant, outcome code
// and route — in Prometheus text format. /v1/stats reports per-tenant SLO
// windows (latency quantiles, error rate, availability burn) plus
// runtime health; -access-log, -trace-sample/-trace-slow and
// -slo-objective tune the per-request observability pipeline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/growth"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
	"datasculpt/internal/serve"
)

// tenantFlags collects repeated -tenant name=path mappings.
type tenantFlags []string

func (t *tenantFlags) String() string { return strings.Join(*t, ",") }
func (t *tenantFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*t = append(*t, v)
	return nil
}

// config is everything run needs; one struct keeps the flag surface and
// the tests in sync.
type config struct {
	bundlePath    string
	tenants       tenantFlags
	defaultTenant string
	addr          string

	maxBatch    int
	parallelism int
	queueDepth  int

	maxResident     int
	shadowAgreement float64

	replicas     int
	replicaIndex int
	peers        string

	logLevel   string
	traceOut   string
	metricsOut string
	debugAddr  string

	accessLog    bool
	traceSample  float64
	traceSlow    time.Duration
	sloObjective float64

	growInterval      time.Duration
	growStateDir      string
	growTenant        string
	growBudget        int
	growMinCorpus     int
	growSeed          int64
	growScale         float64
	growAgreement     float64
	growMaxRegression float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.bundlePath, "bundle", "", "model bundle mapped to the default tenant (produced by datasculpt -save-bundle)")
	flag.Var(&cfg.tenants, "tenant", "tenant mapping name=bundle-path (repeatable)")
	flag.StringVar(&cfg.defaultTenant, "default-tenant", "default", "tenant the bare /v1/label alias routes to")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.maxBatch, "max-batch", 64, "max texts per micro-batch")
	flag.IntVar(&cfg.parallelism, "parallelism", 0, "featurize/predict worker goroutines per batch (0 = GOMAXPROCS, 1 = sequential; results identical)")
	flag.IntVar(&cfg.queueDepth, "queue-depth", 0, "max texts waiting in the coalescer queue before requests shed with 429 (0 = 16*max-batch)")
	flag.IntVar(&cfg.maxResident, "max-resident", 8, "max tenants with a mapped server at once (LRU evicts beyond this)")
	flag.Float64Var(&cfg.shadowAgreement, "shadow-agreement", 0.9, "min agreement with the incumbent on recent traffic for a promotion to pass the shadow gate")
	flag.IntVar(&cfg.replicas, "replicas", 1, "replica-set size for consistent-hash tenant sharding")
	flag.IntVar(&cfg.replicaIndex, "replica-index", 0, "this replica's shard index (0..replicas-1)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated replica addresses, advertised in 421 shard hints (index i = replica i)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log verbosity: debug, info, warn, error")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "stream one JSON span per request/batch to this file")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write final metrics here on exit (Prometheus text; JSON if the path ends in .json)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address")
	flag.BoolVar(&cfg.accessLog, "access-log", false, "log one structured line per gateway request (rate-capped)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1, "head-sampling probability for -trace-out traces (errors and slow requests are always kept)")
	flag.DurationVar(&cfg.traceSlow, "trace-slow", 250*time.Millisecond, "keep any trace at least this slow regardless of sampling (0 disables the latch)")
	flag.Float64Var(&cfg.sloObjective, "slo-objective", 0.999, "availability target /v1/stats reports burn rates against")
	flag.DurationVar(&cfg.growInterval, "grow-interval", 0, "online growth cycle period (0 disables the growth loop)")
	flag.StringVar(&cfg.growStateDir, "grow-state-dir", "", "directory for the growth loop's durable state (journal, lineage head, cycle workspace)")
	flag.StringVar(&cfg.growTenant, "grow-tenant", "", "tenant the growth loop samples and promotes (default: -default-tenant)")
	flag.IntVar(&cfg.growBudget, "grow-budget", 8, "max LLM proposal iterations per growth cycle")
	flag.IntVar(&cfg.growMinCorpus, "grow-min-corpus", 16, "min captured texts before a growth cycle runs")
	flag.Int64Var(&cfg.growSeed, "grow-seed", 0, "seed for regenerating the growth base dataset (default: the bundle's training seed)")
	flag.Float64Var(&cfg.growScale, "grow-scale", 1, "scale for regenerating the growth base dataset")
	flag.Float64Var(&cfg.growAgreement, "grow-agreement", 0.9, "min post-promote agreement with the parent on the cycle corpus before auto-rollback")
	flag.Float64Var(&cfg.growMaxRegression, "grow-max-regression", 0.02, "max offline-metric regression a growth candidate may show before rejection")
	flag.Parse()

	if err := run(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "datasculptd:", err)
		os.Exit(1)
	}
}

// run serves cfg until SIGINT, SIGTERM or the end of ctx, then shuts
// down gracefully.
func run(ctx context.Context, cfg config) (err error) {
	if cfg.bundlePath == "" && len(cfg.tenants) == 0 {
		return errors.New("at least one of -bundle and -tenant is required")
	}
	if cfg.replicas < 1 || cfg.replicaIndex < 0 || cfg.replicaIndex >= cfg.replicas {
		return fmt.Errorf("-replica-index %d out of range for -replicas %d", cfg.replicaIndex, cfg.replicas)
	}
	o, cleanup, err := obs.Setup(obs.SetupConfig{
		LogLevel:    cfg.logLevel,
		TracePath:   cfg.traceOut,
		MetricsPath: cfg.metricsOut,
		DebugAddr:   cfg.debugAddr,
	})
	if err != nil {
		return err
	}
	// The cleanup writes -metrics-out and flushes the trace sink, so it
	// must run (and be checked) even when serving failed.
	defer func() {
		if cerr := cleanup(); err == nil {
			err = cerr
		}
	}()
	if cfg.traceOut != "" && (cfg.traceSample < 1 || cfg.traceSlow > 0) {
		// Sampling makes JSONL tracing survivable at serving rates: head
		// sample at -trace-sample, always keep errors, latch anything
		// slower than -trace-slow.
		o = obs.New(obs.NewSampledTracer(o.Tracer, obs.SamplerOptions{
			Rate:       cfg.traceSample,
			KeepErrors: true,
			SlowLatch:  cfg.traceSlow,
		}), o.Metrics, o.Logger)
	}

	// The growth daemon needs the registry (to promote into) and the
	// registry needs the capture hook (to feed the daemon), so the hook
	// late-binds through an atomic pointer set once the daemon exists —
	// before the listener opens, but data-race-free regardless.
	var growPtr atomic.Pointer[growth.Daemon]
	regOpts := registry.Options{
		MaxResident:     cfg.maxResident,
		ShadowAgreement: cfg.shadowAgreement,
		Serve: serve.Options{
			MaxBatch:   cfg.maxBatch,
			Workers:    cfg.parallelism,
			QueueDepth: cfg.queueDepth,
		},
	}
	if cfg.growInterval > 0 {
		regOpts.Capture = func(tenant string, texts []string) {
			if d := growPtr.Load(); d != nil {
				d.Capture(tenant, texts)
			}
		}
	}
	reg := registry.New(o, regOpts)
	if cfg.bundlePath != "" {
		if err := reg.Register(cfg.defaultTenant, cfg.bundlePath); err != nil {
			return err
		}
	}
	for _, m := range cfg.tenants {
		name, path, _ := strings.Cut(m, "=")
		if err := reg.Register(name, path); err != nil {
			return err
		}
	}

	growD, err := setupGrowth(cfg, reg, o)
	if err != nil {
		reg.Close()
		return err
	}
	if growD != nil {
		growPtr.Store(growD)
	}

	var ring *registry.Ring
	if cfg.replicas > 1 {
		ring = registry.NewRing(cfg.replicas, 0)
	}
	var peers []string
	if cfg.peers != "" {
		peers = strings.Split(cfg.peers, ",")
	}
	gwOpts := registry.GatewayOptions{
		DefaultTenant: cfg.defaultTenant,
		Ring:          ring,
		SelfShard:     cfg.replicaIndex,
		Peers:         peers,
		AccessLog:     cfg.accessLog,
		SLOObjective:  cfg.sloObjective,
	}
	if growD != nil {
		gwOpts.Growth = func() any { return growD.Status() }
	}
	gw := registry.NewGateway(reg, o, gwOpts)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	o.Logger.Info("serving",
		"tenants", reg.Tenants(),
		"default_tenant", cfg.defaultTenant,
		"shard", cfg.replicaIndex,
		"replicas", cfg.replicas,
		"addr", ln.Addr().String())
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	if growD != nil {
		growCtx, growCancel := context.WithCancel(ctx)
		growD.Start(growCtx)
		defer func() {
			growCancel()
			growD.Close()
		}()
	}
	return serveGateway(ctx, ln, reg, gw, o)
}

// setupGrowth assembles the online growth daemon when -grow-interval is
// set: resolve the grow tenant's bundle, regenerate the base dataset it
// was trained on, and rebuild a pipeline config from its provenance.
func setupGrowth(cfg config, reg *registry.Registry, o *obs.Obs) (*growth.Daemon, error) {
	if cfg.growInterval <= 0 {
		return nil, nil
	}
	if cfg.growStateDir == "" {
		return nil, errors.New("-grow-interval requires -grow-state-dir")
	}
	tenant := cfg.growTenant
	if tenant == "" {
		tenant = cfg.defaultTenant
	}
	path := ""
	if tenant == cfg.defaultTenant && cfg.bundlePath != "" {
		path = cfg.bundlePath
	}
	for _, m := range cfg.tenants {
		name, p, _ := strings.Cut(m, "=")
		if name == tenant {
			path = p
		}
	}
	if path == "" {
		return nil, fmt.Errorf("growth tenant %q has no bundle mapping", tenant)
	}
	parent, err := bundle.Load(path)
	if err != nil {
		return nil, err
	}
	seed := cfg.growSeed
	if seed == 0 {
		seed = parent.Provenance.Seed
	}
	base, err := dataset.Load(parent.Dataset.Name, seed, cfg.growScale)
	if err != nil {
		return nil, fmt.Errorf("regenerating growth base dataset: %w", err)
	}
	pcfg := core.DefaultConfig(growthVariant(parent.Provenance.Method))
	pcfg.Model = parent.Provenance.Model
	pcfg.Seed = parent.Provenance.Seed
	if parent.Provenance.Iterations > 0 {
		pcfg.Iterations = parent.Provenance.Iterations
	}
	return growth.New(growth.Config{
		Tenant:             tenant,
		Registry:           reg,
		Base:               base,
		Parent:             parent,
		Pipeline:           pcfg,
		StateDir:           cfg.growStateDir,
		Interval:           cfg.growInterval,
		Budget:             cfg.growBudget,
		MinCorpus:          cfg.growMinCorpus,
		MinVerifyAgreement: cfg.growAgreement,
		MaxRegression:      cfg.growMaxRegression,
		Obs:                o,
	})
}

// growthVariant recovers the pipeline variant from a bundle's method
// string ("datasculpt-base", "datasculpt-cot-grown", ...), defaulting
// to the base variant for anything unrecognized.
func growthVariant(method string) core.Variant {
	name := strings.TrimSuffix(strings.TrimPrefix(method, "datasculpt-"), "-grown")
	for _, v := range []core.Variant{core.VariantBase, core.VariantCoT, core.VariantSC, core.VariantKATE} {
		if name == string(v) {
			return v
		}
	}
	return core.VariantBase
}

// serveGateway serves the gateway on ln until ctx is cancelled, then
// shuts down gracefully: stop accepting connections, let in-flight
// requests finish, drain every tenant's coalescer queue.
func serveGateway(ctx context.Context, ln net.Listener, reg *registry.Registry, gw *registry.Gateway, o *obs.Obs) error {
	httpSrv := &http.Server{Handler: gw.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		reg.Close()
		return err
	case <-ctx.Done():
	}
	o.Logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		reg.Close()
		return err
	}
	reg.Close()
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
