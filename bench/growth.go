package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"datasculpt/internal/bundle"
	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/growth"
	"datasculpt/internal/obs"
	"datasculpt/internal/registry"
)

const growthTenant = "tenant-0"

// growthWorkload runs growth cycles over a parent bundle registered in a
// registry, each after capturing a batch of fresh texts.
func growthWorkload(name, why string, c corpus) *workload {
	return &workload{name: name, why: why, setup: func(ctx context.Context, e *setupEnv) (instance, error) {
		return setupGrowth(e, c)
	}}
}

// episodeCycles is how many cycles grow one lineage before the workload
// starts over from the parent. A lineage grown for dozens of cycles
// saturates: its cycles find no new LFs and take a third of the time,
// so without episodes a run's median would depend on how long it ran.
const episodeCycles = 4

type growthInst struct {
	size    size
	seed    int64
	dir     string
	base    *dataset.Dataset
	parent  *bundle.Bundle
	pcfg    core.Config
	o       *obs.Obs
	episode int // episodes started
	state   string
	reg     *registry.Registry
	daemon  *growth.Daemon
	pool    []string
	next    int
	recs    []growth.CycleRecord
}

func setupGrowth(e *setupEnv, c corpus) (_ *growthInst, err error) {
	g := &growthInst{size: e.size, seed: e.seed}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	if g.base, err = e.generate(c, e.seed); err != nil {
		return nil, err
	}
	b, err := trainBundle(e, g.base)
	if err != nil {
		return nil, err
	}
	if g.dir, err = os.MkdirTemp("", "datasculpt-bench-growth-"); err != nil {
		return nil, err
	}
	if g.parent, err = saveAndLoad(e, b, g.parentPath()); err != nil {
		return nil, err
	}
	pool, err := e.generate(c, e.seed+1)
	if err != nil {
		return nil, err
	}
	g.pool = dataset.Texts(pool.Train)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(g.pool), func(i, j int) { g.pool[i], g.pool[j] = g.pool[j], g.pool[i] })

	g.pcfg = core.DefaultConfig(core.VariantBase)
	if e.size.iterations > 0 {
		g.pcfg.Iterations = e.size.iterations
	}
	if e.mem != nil {
		g.pcfg.WrapModel = chatSpans
	}
	err = e.step("setup.register", func() error {
		g.o = obs.New(e.tracer(), obs.NewRegistry(), nil)
		return g.startEpisode()
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func (g *growthInst) parentPath() string { return filepath.Join(g.dir, "parent.json") }

// startEpisode replaces the registry and daemon with fresh ones that
// serve and grow the parent from an empty state dir, with the episode's
// own pipeline seed.
func (g *growthInst) startEpisode() error {
	g.stopEpisode()
	cfg := g.pcfg
	cfg.Seed = opSeed(g.seed, g.episode)
	g.episode++
	g.state = filepath.Join(g.dir, fmt.Sprintf("state-%d", g.episode))
	g.reg = registry.New(g.o, registry.Options{})
	if err := g.reg.Register(growthTenant, g.parentPath()); err != nil {
		return err
	}
	var err error
	g.daemon, err = growth.New(growth.Config{
		Tenant:   growthTenant,
		Registry: g.reg,
		Base:     g.base,
		Parent:   g.parent,
		Pipeline: cfg,
		StateDir: g.state,
		Budget:   g.size.budget,
		Obs:      g.o,
	})
	return err
}

func (g *growthInst) stopEpisode() {
	if g.reg != nil {
		g.reg.Close()
		g.reg = nil
	}
	if g.daemon != nil {
		g.daemon.Close()
		g.daemon = nil
	}
	if g.state != "" {
		os.RemoveAll(g.state)
	}
}

func (g *growthInst) capture() []string {
	texts := make([]string, g.size.capture)
	for i := range texts {
		texts[i] = g.pool[g.next%len(g.pool)]
		g.next++
	}
	return texts
}

func (g *growthInst) measure(ctx context.Context, window time.Duration, p *pass) error {
	start := time.Now()
	for g.size.maxCycles == 0 || len(p.lat)+p.failed < g.size.maxCycles {
		if p.attempted > 0 && p.attempted%episodeCycles == 0 {
			// Untimed, like a pipeline run's corpus.
			if err := g.startEpisode(); err != nil {
				return err
			}
		}
		g.daemon.Capture(growthTenant, g.capture())
		runtime.GC() // as for pipeline runs: every cycle starts from a collected heap
		opCtx, op := p.startOp(ctx)
		t0 := time.Now()
		rec, err := g.daemon.RunCycle(opCtx)
		d := time.Since(t0)
		op.End()
		p.attempted++
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return err
			}
			p.fail("cycle: %v", err)
		case rec == nil:
			p.fail("cycle returned no record")
		default:
			if err := g.check(rec); err != nil {
				p.fail("cycle %d: %v", rec.Cycle, err)
				break
			}
			g.recs = append(g.recs, *rec)
			p.lat = append(p.lat, ms(d))
			p.sigs = append(p.sigs, fmt.Sprintf("%s/%d", rec.Outcome, rec.NewLFs))
		}
		if time.Since(start) >= window {
			break
		}
	}
	return nil
}

// check verifies a cycle's durable outputs: a known outcome, an archived
// candidate that reloads to the fingerprint the journal recorded, and,
// after a promotion, the registry serving the generation it reported.
func (g *growthInst) check(rec *growth.CycleRecord) error {
	switch rec.Outcome {
	case growth.OutcomeNoNewLFs, growth.OutcomeQualityRejected, growth.OutcomeShadowRejected,
		growth.OutcomeRolledBack, growth.OutcomePromoted:
	default:
		return fmt.Errorf("unknown outcome %q", rec.Outcome)
	}
	if rec.CorpusLen <= 0 || rec.CorpusLen > g.size.capture {
		return fmt.Errorf("corpus of %d texts after capturing %d", rec.CorpusLen, g.size.capture)
	}
	if rec.CandidateHash != "" {
		cand, err := bundle.Load(filepath.Join(g.state, fmt.Sprintf("candidate-%d.json", rec.Cycle)))
		if err != nil {
			return err
		}
		fp, err := bundle.Fingerprint(cand)
		if err != nil {
			return err
		}
		if fp != rec.CandidateHash {
			return fmt.Errorf("archived candidate fingerprint %s, journal %s", fp, rec.CandidateHash)
		}
	}
	if rec.Outcome == growth.OutcomePromoted {
		for _, info := range g.reg.List() {
			if info.Tenant == growthTenant && info.Generation != rec.Generation {
				return fmt.Errorf("registry serves generation %d, cycle promoted %d", info.Generation, rec.Generation)
			}
		}
	}
	return nil
}

func (g *growthInst) layers(_ *pass, _ spanSums, m map[string]float64) {
	if len(g.recs) == 0 {
		return
	}
	promoted, newLFs := 0, 0
	for _, r := range g.recs {
		newLFs += r.NewLFs
		if r.Outcome == growth.OutcomePromoted {
			promoted++
		}
	}
	m["growth.cycles"] = float64(len(g.recs))
	m["growth.promoted"] = float64(promoted)
	m["growth.new_lfs_per_cycle"] = float64(newLFs) / float64(len(g.recs))
	last := g.recs[len(g.recs)-1]
	m["quality.end_metric"] = last.ParentMetric
	if last.Outcome == growth.OutcomePromoted {
		m["quality.end_metric"] = last.CandidateMetric
	}
}

func (g *growthInst) hotPath(*pass) hotPath {
	return hotPath{texts: g.pool, feat: g.parent.Featurizer, model: g.parent.EndModel, lfs: g.parent.LFs, batch: 64}
}

func (g *growthInst) close() {
	g.stopEpisode()
	if g.dir != "" {
		os.RemoveAll(g.dir)
	}
}
