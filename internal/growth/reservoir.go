// Package growth closes the ROADMAP's train-while-serving loop: a
// background daemon inside datasculptd that captures a bounded sample
// of served texts, periodically re-runs the select→prompt→filter
// pipeline over them to propose new label functions, verifies the
// grown bundle offline, then promotes it through the registry's
// shadow-gated hot swap. Every stage is journaled as durable JSONL
// state (internal/ckpt), so a killed daemon resumes mid-cycle and
// produces a byte-identical candidate bundle.
package growth

import (
	"math/rand"
	"sync"
)

// Reservoir keeps a bounded uniform sample (Vitter's Algorithm R) of
// the texts one tenant's serving traffic carries — the free unlabeled
// corpus the growth loop feeds on. Capture matches the
// registry.Options.Capture signature and runs on the request path, so
// it does constant work per text and copies nothing but the string
// header. Privacy scope: only the configured tenant is sampled, and
// empty or oversized texts are dropped rather than stored.
type Reservoir struct {
	tenant   string
	capacity int
	maxBytes int

	mu    sync.Mutex
	rng   *rand.Rand
	texts []string
	seen  int64 // texts admitted to the current sample window
	total int64 // texts admitted since construction (across snapshots)
}

// NewReservoir builds a reservoir sampling capacity texts for tenant,
// dropping texts longer than maxBytes. The seeded rng makes the kept
// sample a deterministic function of the capture sequence.
func NewReservoir(tenant string, capacity, maxBytes int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = 512
	}
	if maxBytes <= 0 {
		maxBytes = 4096
	}
	return &Reservoir{
		tenant:   tenant,
		capacity: capacity,
		maxBytes: maxBytes,
		rng:      rand.New(rand.NewSource(seed)),
		texts:    make([]string, 0, capacity),
	}
}

// Capture offers served texts to the sample and returns how many were
// admitted. Texts for other tenants, empty texts, and texts over the
// byte cap are ignored.
func (r *Reservoir) Capture(tenant string, texts []string) int {
	if tenant != r.tenant {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	admitted := 0
	for _, t := range texts {
		if t == "" || len(t) > r.maxBytes {
			continue
		}
		r.seen++
		r.total++
		admitted++
		if len(r.texts) < r.capacity {
			r.texts = append(r.texts, t)
			continue
		}
		if j := r.rng.Int63n(r.seen); j < int64(r.capacity) {
			r.texts[j] = t
		}
	}
	return admitted
}

// Snapshot drains the reservoir: it returns the current sample and
// resets the window so the next cycle sees fresh traffic. The rng is
// kept, so the capture sequence → sample mapping stays deterministic
// across snapshots.
func (r *Reservoir) Snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.texts
	r.texts = make([]string, 0, r.capacity)
	r.seen = 0
	return out
}

// Len reports the current sample size.
func (r *Reservoir) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.texts)
}

// Total reports how many texts were ever admitted.
func (r *Reservoir) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
