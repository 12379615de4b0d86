package growth

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/ckpt"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
)

// Config wires one growth daemon to its tenant.
type Config struct {
	// Tenant is the registry tenant the daemon grows.
	Tenant string
	// Registry is where candidate bundles are promoted (and rolled
	// back). Required.
	Registry *registry.Registry
	// Base is the dataset the parent bundle was trained on — its train
	// split anchors the growth corpus and its labeled valid/test splits
	// drive LF filtering and the quality gate. Text classification
	// only: captured request texts carry no entity annotations.
	Base *dataset.Dataset
	// Parent is the bundle the lineage starts from (the one the tenant
	// currently serves). After a promoted cycle the promoted candidate
	// becomes the parent.
	Parent *bundle.Bundle
	// Pipeline is the select→prompt→filter configuration cycles run
	// with; its Seed anchors every cycle's derived seed.
	Pipeline core.Config
	// StateDir holds the durable state: growth.jsonl (cycle journal),
	// parent.json (current lineage head), candidate-<n>.json archives,
	// and the in-progress cycle/ workspace. Required.
	StateDir string
	// Interval is the Start loop's cycle period (0 disables the loop;
	// RunCycle can still be driven manually).
	Interval time.Duration
	// Budget caps proposer iterations (LLM prompts) per cycle
	// (default 8).
	Budget int
	// MinCorpus is the smallest captured sample worth a cycle
	// (default 16); below it the tick is skipped and capture continues.
	MinCorpus int
	// ReservoirCap bounds the captured sample (default 512);
	// MaxTextBytes drops oversized texts at capture (default 4096).
	ReservoirCap int
	MaxTextBytes int
	// MinVerifyAgreement is the post-promote verification floor: the
	// promoted candidate must agree with its parent on at least this
	// fraction of the cycle corpus or it is rolled back (default 0.9).
	MinVerifyAgreement float64
	// MaxRegression is how far the candidate's offline test metric may
	// fall below the parent's before the quality gate rejects it
	// without promoting (default 0.02).
	MaxRegression float64
	// Obs is the telemetry bundle (obs.Default() when nil).
	Obs *obs.Obs
	// WrapModel, when set, wraps each iteration's LLM endpoint — the
	// injection point for retry/fault middleware, keyed by cycle and
	// iteration so injected randomness stays derivable on resume.
	WrapModel func(cycle, iter int, m llm.ChatModel) llm.ChatModel

	// afterCheckpoint, when set, runs after each durable checkpoint
	// write; an error aborts the cycle there — the chaos tests'
	// SIGKILL stand-in.
	afterCheckpoint func(stage string) error
	// now supplies cycle timestamps (time.Now().Unix() when nil);
	// pinned by tests that compare candidate bytes across runs.
	now func() int64
	// mutateCandidate, when set, alters the candidate before it is
	// saved — how the rollback tests manufacture a regressing bundle.
	mutateCandidate func(*bundle.Bundle)
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 8
	}
	if c.MinCorpus <= 0 {
		c.MinCorpus = 16
	}
	if c.ReservoirCap <= 0 {
		c.ReservoirCap = 512
	}
	if c.MaxTextBytes <= 0 {
		c.MaxTextBytes = 4096
	}
	if c.MinVerifyAgreement <= 0 {
		c.MinVerifyAgreement = 0.9
	}
	if c.MaxRegression <= 0 {
		c.MaxRegression = 0.02
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	if c.now == nil {
		c.now = func() int64 { return time.Now().Unix() }
	}
	return c
}

// Daemon is the online growth loop for one tenant. Construction loads
// (or initializes) the durable state; Start runs the periodic loop;
// RunCycle drives one cycle synchronously — resuming an interrupted
// one first if the state dir holds a cycle/ workspace.
type Daemon struct {
	cfg Config
	o   *obs.Obs
	res *Reservoir

	// cycleMu serializes cycles; mu guards the fields Status reads.
	cycleMu    sync.Mutex
	mu         sync.Mutex
	parent     *bundle.Bundle
	parentHash string
	records    []CycleRecord
	running    bool

	wg sync.WaitGroup

	mCaptured *obs.Counter
	mCycles   *obs.CounterVec
	mNewLFs   *obs.Counter
	mCycleSec *obs.Histogram
	mFill     *obs.Gauge
}

// New builds a daemon over cfg, creating StateDir if needed, loading
// the cycle journal, and pinning the lineage head: a parent.json left
// by an earlier process wins over cfg.Parent, so a restarted daemon
// continues the lineage it had grown rather than regressing to the
// boot bundle.
func New(cfg Config) (*Daemon, error) {
	if cfg.Tenant == "" {
		return nil, fmt.Errorf("growth: empty tenant")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("growth: nil registry")
	}
	if cfg.Base == nil || cfg.Parent == nil {
		return nil, fmt.Errorf("growth: nil base dataset or parent bundle")
	}
	if err := cfg.Parent.Validate(); err != nil {
		return nil, fmt.Errorf("growth: parent: %w", err)
	}
	if cfg.Base.Task != dataset.TextClassification {
		return nil, fmt.Errorf("growth: task %s unsupported (captured texts carry no entity annotations)", cfg.Base.Task)
	}
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("growth: empty state dir")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("growth: creating state dir: %w", err)
	}

	records, err := ckpt.Load(filepath.Join(cfg.StateDir, "growth.jsonl"),
		func(r *CycleRecord) bool { return r.Outcome != "" })
	if err != nil {
		return nil, err
	}

	parentPath := filepath.Join(cfg.StateDir, "parent.json")
	var parent *bundle.Bundle
	if _, statErr := os.Stat(parentPath); statErr == nil {
		if parent, err = bundle.Load(parentPath); err != nil {
			return nil, fmt.Errorf("growth: loading lineage head: %w", err)
		}
	} else if !os.IsNotExist(statErr) {
		return nil, fmt.Errorf("growth: %w", statErr)
	} else {
		// Pin the save timestamp before the first serialization so the
		// lineage head's bytes (and fingerprint) never depend on when
		// the daemon booted relative to when the bundle is hashed.
		pb := *cfg.Parent
		if pb.Provenance.CreatedUnix == 0 {
			pb.Provenance.CreatedUnix = cfg.now()
		}
		parent = &pb
		if err := bundle.Save(parentPath, parent); err != nil {
			return nil, fmt.Errorf("growth: saving lineage head: %w", err)
		}
	}
	parentHash, err := bundle.Fingerprint(parent)
	if err != nil {
		return nil, err
	}

	d := &Daemon{
		cfg:        cfg,
		o:          cfg.Obs,
		res:        NewReservoir(cfg.Tenant, cfg.ReservoirCap, cfg.MaxTextBytes, cfg.Pipeline.Seed+53),
		parent:     parent,
		parentHash: parentHash,
		records:    records,
	}
	reg := cfg.Obs.Metrics
	d.mCaptured = reg.CounterVec("growth_captured_texts_total", "Served texts admitted to the growth reservoir.", "tenant").With(cfg.Tenant)
	d.mCycles = reg.CounterVec("growth_cycles_total", "Completed growth cycles by outcome.", "tenant", "outcome")
	d.mNewLFs = reg.CounterVec("growth_new_lfs_total", "Label functions proposed and accepted by growth cycles.", "tenant").With(cfg.Tenant)
	d.mCycleSec = reg.HistogramVec("growth_cycle_seconds", "Growth cycle wall clock.", obs.LongDurationBuckets, "tenant").With(cfg.Tenant)
	d.mFill = reg.GaugeVec("growth_reservoir_fill", "Texts currently held in the growth reservoir.", "tenant").With(cfg.Tenant)
	return d, nil
}

// Capture feeds served texts into the reservoir — wire it as
// registry.Options.Capture. Safe for concurrent use.
func (d *Daemon) Capture(tenant string, texts []string) {
	n := d.res.Capture(tenant, texts)
	if n > 0 {
		d.mCaptured.AddInt(n)
		d.mFill.Set(float64(d.res.Len()))
	}
}

// Reservoir exposes the daemon's capture reservoir.
func (d *Daemon) Reservoir() *Reservoir { return d.res }

// Start launches the periodic cycle loop. It returns immediately; the
// loop stops when ctx is cancelled. With Interval <= 0 it is a no-op.
func (d *Daemon) Start(ctx context.Context) {
	if d.cfg.Interval <= 0 {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(d.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := d.RunCycle(ctx); err != nil && ctx.Err() == nil {
					d.o.Logger.LogAttrs(ctx, slog.LevelError, "growth cycle failed",
						slog.String("tenant", d.cfg.Tenant), slog.String("error", err.Error()))
				}
			}
		}
	}()
}

// Close waits for the Start loop to exit. Cancel the Start context
// first; Close does not interrupt a cycle in flight.
func (d *Daemon) Close() { d.wg.Wait() }

// Status reports the daemon's durable and live state — the
// GET /v1/growth payload.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{
		Tenant:          d.cfg.Tenant,
		State:           "idle",
		IntervalSeconds: d.cfg.Interval.Seconds(),
		Budget:          d.cfg.Budget,
		MinCorpus:       d.cfg.MinCorpus,
		Captured:        d.res.Len(),
		CapturedTotal:   d.res.Total(),
		Parent:          d.parentHash,
		GrowthCycle:     d.parent.Provenance.GrowthCycle,
		Stats:           stats(d.records),
	}
	if d.running {
		st.State = "running"
	}
	if n := len(d.records); n > 0 {
		last := d.records[n-1]
		st.LastCycle = &last
	}
	return st
}
