package core

import (
	"fmt"

	"datasculpt/internal/endmodel"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/textproc"
)

// Result collects everything Table 2 reports about one run, plus the
// token/cost accounting of Figures 3-4 and diagnostic counts. Its JSON
// form is the statistics a grid checkpoint record keeps: the identity,
// rejection counts, LF set and artifacts are not serialized (grids
// report statistics, and small records keep appends cheap).
type Result struct {
	// Dataset and Method identify the run; a checkpoint record carries
	// them itself.
	Dataset, Method string `json:"-"`

	// NumLFs is the size of the final LF set (#LFs row).
	NumLFs int `json:"num_lfs"`
	// LFAccuracy is the mean per-LF accuracy on the train split (LF Acc.
	// row); LFAccuracyKnown is false when train labels are unavailable
	// (Spouse), where the paper prints "-".
	LFAccuracy      float64 `json:"lf_accuracy"`
	LFAccuracyKnown bool    `json:"lf_accuracy_known"`
	// LFCoverage is the mean per-LF coverage on the train split (LF Cov.).
	LFCoverage float64 `json:"lf_coverage"`
	// TotalCoverage is the fraction of train instances covered by any LF
	// (Total Cov.).
	TotalCoverage float64 `json:"total_coverage"`
	// EndMetric is test accuracy, or binary F1 for imbalanced datasets
	// (EM Acc/F1); MetricName says which.
	EndMetric  float64 `json:"end_metric"`
	MetricName string  `json:"metric_name"`

	// PromptTokens/CompletionTokens/Calls/CostUSD account for every LLM
	// call of the run (Figures 3-4).
	PromptTokens     int     `json:"prompt_tokens"`
	CompletionTokens int     `json:"completion_tokens"`
	Calls            int     `json:"calls"`
	CostUSD          float64 `json:"cost_usd"`

	// ParseFailures counts LLM responses the parser rejected entirely.
	ParseFailures int `json:"parse_failures,omitempty"`
	// FailedIterations counts query iterations abandoned because the LLM
	// call failed even after retries (graceful degradation under
	// Config.MaxFailedIterations; 0 in strict paper mode, which aborts
	// instead).
	FailedIterations int `json:"failed_iterations,omitempty"`
	// Rejections counts filtered candidates by reason.
	Rejections map[lf.RejectReason]int `json:"-"`

	// LFs is the final label-function set.
	LFs []lf.LabelFunction `json:"-"`

	// Artifacts references the trained components behind EndMetric — the
	// pieces a model bundle snapshots for serving. Always non-nil after a
	// successful evaluation (individual fields may be nil; see Artifacts).
	Artifacts *Artifacts `json:"-"`
}

// Artifacts bundles the trained components a run produces alongside its
// statistics: everything needed to answer labeling requests later without
// retraining. internal/bundle serializes them; cmd/datasculptd serves
// them.
type Artifacts struct {
	// Featurizer is the fitted hashed-TF-IDF featurizer (never nil).
	Featurizer *textproc.Featurizer
	// EndModel is the trained logistic regression, or nil when no train
	// example was covered (the degenerate default-class-only run).
	EndModel *endmodel.LogisticRegression
	// LabelModel is the final fitted MeTaL, or nil when another label
	// model was configured or no fit happened (empty/uncovered LF set).
	LabelModel *labelmodel.MeTaL
}

// TotalTokens returns prompt+completion tokens.
func (r *Result) TotalTokens() int { return r.PromptTokens + r.CompletionTokens }

// LFAccuracyString renders LF accuracy the way the paper's tables do:
// "-" when train labels are unavailable.
func (r *Result) LFAccuracyString() string {
	if !r.LFAccuracyKnown {
		return "-"
	}
	return fmt.Sprintf("%.3f", r.LFAccuracy)
}

// String summarizes the run for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %d LFs, LF acc %s, LF cov %.3f, total cov %.3f, %s %.3f, %d tokens, $%.4f",
		r.Dataset, r.Method, r.NumLFs, r.LFAccuracyString(), r.LFCoverage,
		r.TotalCoverage, r.MetricName, r.EndMetric, r.TotalTokens(), r.CostUSD)
}
