package growth

// Cycle outcomes, in the order the promotion state machine can reach
// them: a cycle that proposed nothing stops before bundling; a
// candidate below the quality floor never reaches the registry, nor
// does one that fails the offline verification (OutcomeRolledBack, its
// journaled name); the registry's shadow gate can reject it; everything
// else is promoted and becomes the next cycle's parent.
const (
	OutcomeNoNewLFs        = "no_new_lfs"
	OutcomeQualityRejected = "quality_rejected"
	OutcomeShadowRejected  = "shadow_rejected"
	OutcomeRolledBack      = "rolled_back"
	OutcomePromoted        = "promoted"
)

// CycleRecord is the journaled outcome of one completed growth cycle —
// one line of growth.jsonl. Everything in it is a deterministic
// function of the captured corpus and the cycle seed, so a resumed
// daemon reproduces the record exactly.
type CycleRecord struct {
	// Cycle is the 1-based cycle counter.
	Cycle int `json:"cycle"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// CorpusLen is how many captured texts the cycle trained over.
	CorpusLen int `json:"corpus_len"`
	// Steps is how many proposer iterations ran (including degraded
	// ones); NewLFs how many LFs they added beyond the parent set.
	Steps  int `json:"steps"`
	NewLFs int `json:"new_lfs"`
	// CandidateMetric/ParentMetric are the offline test metrics the
	// quality gate compared (candidate side absent when no candidate
	// was built).
	CandidateMetric float64 `json:"candidate_metric,omitempty"`
	ParentMetric    float64 `json:"parent_metric"`
	// ShadowAgreement is what the registry's gate measured (when it
	// ran); VerifyAgreement is the growth loop's own offline check of
	// candidate vs parent over the cycle corpus.
	ShadowAgreement float64 `json:"shadow_agreement,omitempty"`
	VerifyAgreement float64 `json:"verify_agreement,omitempty"`
	// Generation is the registry generation a promotion produced.
	Generation int `json:"generation,omitempty"`
	// CandidateHash fingerprints the candidate bundle; Parent the
	// bundle it grew from.
	CandidateHash string `json:"candidate_hash,omitempty"`
	Parent        string `json:"parent"`
	// CreatedUnix is the cycle's pinned timestamp (taken once at
	// snapshot time and reused on resume, so candidate bytes are
	// kill-stable).
	CreatedUnix int64 `json:"created_unix"`
}

// CycleStats aggregates the journal for the status endpoint.
type CycleStats struct {
	Cycles     int `json:"cycles"`
	Promoted   int `json:"promoted"`
	RolledBack int `json:"rolled_back"`
	Rejected   int `json:"rejected"`
	NoNewLFs   int `json:"no_new_lfs"`
	NewLFs     int `json:"new_lfs"`
}

// Status is the GET /v1/growth payload: the daemon's configuration,
// the reservoir's fill, and the journal so far.
type Status struct {
	Tenant          string       `json:"tenant"`
	State           string       `json:"state"` // "idle" | "running"
	IntervalSeconds float64      `json:"interval_seconds"`
	Budget          int          `json:"budget"`
	MinCorpus       int          `json:"min_corpus"`
	Captured        int          `json:"captured"`
	CapturedTotal   int64        `json:"captured_total"`
	Parent          string       `json:"parent"`
	GrowthCycle     int          `json:"growth_cycle"`
	Stats           CycleStats   `json:"stats"`
	LastCycle       *CycleRecord `json:"last_cycle,omitempty"`
}

// stats folds the journal into counters.
func stats(records []CycleRecord) CycleStats {
	s := CycleStats{Cycles: len(records)}
	for _, r := range records {
		s.NewLFs += r.NewLFs
		switch r.Outcome {
		case OutcomePromoted:
			s.Promoted++
		case OutcomeRolledBack:
			s.RolledBack++
		case OutcomeShadowRejected, OutcomeQualityRejected:
			s.Rejected++
		case OutcomeNoNewLFs:
			s.NoNewLFs++
		}
	}
	return s
}
