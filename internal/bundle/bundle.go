// Package bundle defines the model-artifact format of DataSculpt-Go: a
// versioned, self-describing snapshot of everything a trained run
// produces — the accepted LF set, the fitted MeTaL parameters, the
// logistic-regression weights, the featurizer vocabulary statistics, and
// provenance (dataset, configuration hash, token/cost totals).
//
// A bundle is what turns a run from printed statistics into a shippable
// product: `datasculpt -save-bundle model.json` persists it, and the
// `datasculptd` daemon loads it to answer labeling requests online. The
// format guarantees round-trip fidelity: a loaded bundle's models produce
// bit-identical vectors, posteriors and predictions to the in-memory
// originals (enforced by the differential tests in this package).
//
// Compatibility policy: the format field must equal Format, and the
// version field must be between 1 and Version inclusive — readers accept
// every older version (additive evolution only; unknown JSON fields are
// ignored), and refuse newer ones rather than mis-serve them. Any change
// that alters the meaning of an existing field requires a version bump
// and an explicit migration path here.
package bundle

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"datasculpt/internal/core"
	"datasculpt/internal/dataset"
	"datasculpt/internal/endmodel"
	"datasculpt/internal/labelmodel"
	"datasculpt/internal/lf"
	"datasculpt/internal/textproc"
)

const (
	// Format is the magic the format field must carry.
	Format = "datasculpt-bundle"
	// Version is the current (and maximum accepted) format version.
	Version = 1
)

// DatasetInfo records the task the bundle was trained for: what the
// daemon needs to interpret requests and render responses, not the data
// itself.
type DatasetInfo struct {
	// Name is the dataset registry key the run trained on.
	Name string `json:"name"`
	// Task is the dataset.TaskType string form.
	Task string `json:"task"`
	// ClassNames maps class index to a human-readable name.
	ClassNames []string `json:"class_names"`
	// DefaultClass mirrors dataset.DefaultClass (-1 when absent).
	DefaultClass int `json:"default_class"`
	// MetricName names the evaluation metric of Provenance.EndMetric.
	MetricName string `json:"metric_name"`
}

// Provenance records where the bundle came from and what it cost.
type Provenance struct {
	// Method is the Result method string (e.g. "datasculpt-base").
	Method string `json:"method"`
	// ConfigHash fingerprints the run configuration (see ConfigHash).
	ConfigHash string `json:"config_hash"`
	// Model is the LLM profile the LFs were generated with.
	Model string `json:"model"`
	// Seed is the run seed.
	Seed int64 `json:"seed"`
	// Iterations is the query-loop length.
	Iterations int `json:"iterations"`
	// NumLFs is the accepted LF-set size; EndMetric the offline test
	// metric it reached.
	NumLFs    int     `json:"num_lfs"`
	EndMetric float64 `json:"end_metric"`
	// Calls/PromptTokens/CompletionTokens/CostUSD account for every LLM
	// call the run spent producing this artifact.
	Calls            int     `json:"calls"`
	PromptTokens     int     `json:"prompt_tokens"`
	CompletionTokens int     `json:"completion_tokens"`
	CostUSD          float64 `json:"cost_usd"`
	// CreatedUnix is the save time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Parent is the Fingerprint of the bundle this one was grown from
	// (empty for offline-trained roots). With GrowthCycle it forms the
	// lineage chain the online growth loop extends: candidate N's parent
	// is the promoted artifact of cycle N-1.
	Parent string `json:"parent,omitempty"`
	// GrowthCycle counts completed growth cycles along the lineage
	// (0 for offline-trained roots).
	GrowthCycle int `json:"growth_cycle,omitempty"`
}

// Bundle is the in-memory form of a model artifact.
type Bundle struct {
	Provenance Provenance
	Dataset    DatasetInfo
	// LFs is the accepted label-function set, in acceptance order — the
	// column order LabelModel's parameters are aligned to.
	LFs []lf.LabelFunction
	// LabelModel holds the fitted MeTaL, or nil when the run used a
	// different (non-serializable) label model; serving then disables the
	// label-model posterior in explain responses.
	LabelModel *labelmodel.MeTaL
	// Featurizer is the fitted featurizer (never nil in a valid bundle).
	Featurizer *textproc.Featurizer
	// EndModel is the trained classifier (never nil in a valid bundle).
	EndModel *endmodel.LogisticRegression
}

// bundleJSON is the stored form: Bundle plus the format/version header,
// with the LF set in its lf.MarshalLFs encoding.
type bundleJSON struct {
	Format     string                       `json:"format"`
	Version    int                          `json:"version"`
	Provenance Provenance                   `json:"provenance"`
	Dataset    DatasetInfo                  `json:"dataset"`
	LFs        json.RawMessage              `json:"lfs"`
	LabelModel *labelmodel.MeTaL            `json:"label_model,omitempty"`
	Featurizer *textproc.Featurizer         `json:"featurizer"`
	EndModel   *endmodel.LogisticRegression `json:"end_model"`
}

// hashableConfig is the subset of core.Config that identifies a run for
// provenance purposes: everything that changes what gets trained, nothing
// that is an injected object or a throughput knob.
type hashableConfig struct {
	Model       string
	Variant     core.Variant
	Iterations  int
	Shots       int
	Temperature float64
	SCSamples   int
	Sampler     string
	Filters     lf.FilterConfig
	LabelModel  string
	FeatureDim  int
	EndModel    endmodel.TrainConfig
	Revise      bool
	Seed        int64
}

// ConfigHash fingerprints the training-relevant fields of a config as a
// 16-hex-digit FNV-64a of their canonical JSON. Two runs with the same
// hash trained the same way (modulo the LLM's actual responses).
func ConfigHash(cfg core.Config) string {
	data, err := json.Marshal(hashableConfig{
		Model: cfg.Model, Variant: cfg.Variant, Iterations: cfg.Iterations,
		Shots: cfg.Shots, Temperature: cfg.Temperature, SCSamples: cfg.SCSamples,
		Sampler: cfg.Sampler, Filters: cfg.Filters, LabelModel: cfg.LabelModel,
		FeatureDim: cfg.FeatureDim, EndModel: cfg.EndModel,
		Revise: cfg.ReviseRejected, Seed: cfg.Seed,
	})
	if err != nil {
		// Every field is a plain value; Marshal cannot fail.
		panic(fmt.Sprintf("bundle: hashing config: %v", err))
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint identifies a bundle's exact serialized content as a
// 16-hex-digit FNV-64a of its canonical JSON. Growth lineage uses it to
// name parents: two bundles share a fingerprint iff they serialize to
// the same bytes.
func Fingerprint(b *Bundle) (string, error) {
	data, err := json.Marshal(b)
	if err != nil {
		return "", fmt.Errorf("bundle: fingerprinting: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// New assembles a bundle from a finished run: the dataset it trained on,
// the configuration it ran with, and the Result it produced. The Result
// must carry trained artifacts (it does after any successful Run /
// EvaluateLFSet whose LF set covered at least one example).
func New(d *dataset.Dataset, cfg core.Config, res *core.Result) (*Bundle, error) {
	if res == nil || res.Artifacts == nil {
		return nil, fmt.Errorf("bundle: result carries no trained artifacts")
	}
	if res.Artifacts.Featurizer == nil || !res.Artifacts.Featurizer.Fitted() {
		return nil, fmt.Errorf("bundle: result carries no fitted featurizer")
	}
	if res.Artifacts.EndModel == nil {
		return nil, fmt.Errorf("bundle: result carries no trained end model (no train example was covered)")
	}
	b := &Bundle{
		Provenance: Provenance{
			Method:           res.Method,
			ConfigHash:       ConfigHash(cfg),
			Model:            cfg.Model,
			Seed:             cfg.Seed,
			Iterations:       cfg.Iterations,
			NumLFs:           res.NumLFs,
			EndMetric:        res.EndMetric,
			Calls:            res.Calls,
			PromptTokens:     res.PromptTokens,
			CompletionTokens: res.CompletionTokens,
			CostUSD:          res.CostUSD,
		},
		Dataset: DatasetInfo{
			Name:         d.Name,
			Task:         d.Task.String(),
			ClassNames:   append([]string(nil), d.ClassNames...),
			DefaultClass: d.DefaultClass,
			MetricName:   d.MetricName(),
		},
		LFs:        res.LFs,
		LabelModel: res.Artifacts.LabelModel,
		Featurizer: res.Artifacts.Featurizer,
		EndModel:   res.Artifacts.EndModel,
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// Validate checks the cross-component invariants a servable bundle must
// satisfy: fitted featurizer, a classifier of matching shape, and — when
// present — label-model parameters aligned with the LF set.
func (b *Bundle) Validate() error {
	k := len(b.Dataset.ClassNames)
	if k < 2 {
		return fmt.Errorf("bundle: %d classes", k)
	}
	if b.Dataset.DefaultClass != dataset.NoDefaultClass &&
		(b.Dataset.DefaultClass < 0 || b.Dataset.DefaultClass >= k) {
		return fmt.Errorf("bundle: default class %d out of range", b.Dataset.DefaultClass)
	}
	if b.Featurizer == nil || !b.Featurizer.Fitted() {
		return fmt.Errorf("bundle: featurizer missing or unfitted")
	}
	if b.EndModel == nil {
		return fmt.Errorf("bundle: end model missing")
	}
	if err := b.EndModel.Validate(); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	if b.EndModel.Dim != b.Featurizer.Dim {
		return fmt.Errorf("bundle: end model dimension %d != featurizer dimension %d",
			b.EndModel.Dim, b.Featurizer.Dim)
	}
	if b.EndModel.K != k {
		return fmt.Errorf("bundle: end model has %d classes, dataset %d", b.EndModel.K, k)
	}
	for _, f := range b.LFs {
		if c := f.TargetClass(); c < 0 || c >= k {
			return fmt.Errorf("bundle: LF %s votes class %d of %d", f.Name(), c, k)
		}
	}
	if b.LabelModel != nil {
		if n := b.LabelModel.NumLFs(); n != len(b.LFs) {
			return fmt.Errorf("bundle: label model fitted on %d LFs, bundle carries %d", n, len(b.LFs))
		}
		if n := b.LabelModel.NumClasses(); n != k {
			return fmt.Errorf("bundle: label model has %d classes, dataset %d", n, k)
		}
	}
	return nil
}

// MarshalJSON implements json.Marshaler, writing the versioned stored
// form and stamping the save time.
func (b *Bundle) MarshalJSON() ([]byte, error) {
	lfData, err := lf.MarshalLFs(b.LFs)
	if err != nil {
		return nil, fmt.Errorf("bundle: serializing LF set: %w", err)
	}
	out := bundleJSON{
		Format:     Format,
		Version:    Version,
		Provenance: b.Provenance,
		Dataset:    b.Dataset,
		LFs:        lfData,
		LabelModel: b.LabelModel,
		Featurizer: b.Featurizer,
		EndModel:   b.EndModel,
	}
	if out.Provenance.CreatedUnix == 0 {
		out.Provenance.CreatedUnix = time.Now().Unix()
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, enforcing the compatibility
// policy (format match, version 1..Version) and revalidating every
// component. Unknown fields from older writers are ignored.
func (b *Bundle) UnmarshalJSON(data []byte) error {
	// The end model is decoded last, once its stored dimension matches
	// the featurizer's: that dimension sizes a dense K×Dim weight
	// matrix, while the featurizer's is backed by one stored document
	// frequency per bucket.
	var in struct {
		bundleJSON
		EndModel json.RawMessage `json:"end_model"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("bundle: decoding: %w", err)
	}
	if in.Format != Format {
		return fmt.Errorf("bundle: format %q is not %q", in.Format, Format)
	}
	if in.Version < 1 || in.Version > Version {
		return fmt.Errorf("bundle: version %d unsupported (this build reads 1..%d)", in.Version, Version)
	}
	lfs, err := lf.UnmarshalLFs(in.LFs)
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	var em *endmodel.LogisticRegression
	if in.Featurizer != nil && len(in.EndModel) > 0 && string(in.EndModel) != "null" {
		var shape struct {
			Dim int `json:"dim"`
		}
		if err := json.Unmarshal(in.EndModel, &shape); err != nil {
			return fmt.Errorf("bundle: decoding end model: %w", err)
		}
		if shape.Dim != in.Featurizer.Dim {
			return fmt.Errorf("bundle: end model dimension %d != featurizer dimension %d", shape.Dim, in.Featurizer.Dim)
		}
		em = new(endmodel.LogisticRegression)
		if err := json.Unmarshal(in.EndModel, em); err != nil {
			return fmt.Errorf("bundle: %w", err)
		}
	}
	b.Provenance = in.Provenance
	b.Dataset = in.Dataset
	b.LFs = lfs
	b.LabelModel = in.LabelModel
	b.Featurizer = in.Featurizer
	b.EndModel = em
	return b.Validate()
}

// Save writes the bundle to path as JSON.
func Save(path string, b *Bundle) error {
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bundle: writing %s: %w", path, err)
	}
	return nil
}

// Load reads and validates a bundle from path.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: reading %s: %w", path, err)
	}
	b := new(Bundle)
	if err := json.Unmarshal(data, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Agreement replays texts through both bundles offline (the same
// featurize→predict path serving uses) and returns the fraction on
// which they predict the same class name. Names, not indices: a
// candidate trained with reordered or different classes must not
// silently pass. An empty corpus agrees trivially (1).
//
// Both bundles must be valid (Validate, which New, Load and every
// registry promote run): that pins EndModel.K to len(ClassNames), and
// Predict returns indices in [0, K), so every index names a class.
func Agreement(old, nb *Bundle, texts []string) float64 {
	if len(texts) == 0 {
		return 1
	}
	corpus := make([][]string, len(texts))
	for i, t := range texts {
		e := &dataset.Example{ID: -1, Text: t, Label: dataset.NoLabel, E1Pos: -1, E2Pos: -1}
		corpus[i] = e.FeatureTokens()
	}
	po := old.EndModel.Predict(old.Featurizer.TransformAll(corpus))
	pn := nb.EndModel.Predict(nb.Featurizer.TransformAll(corpus))
	agree := 0
	for i := range po {
		if old.Dataset.ClassNames[po[i]] == nb.Dataset.ClassNames[pn[i]] {
			agree++
		}
	}
	return float64(agree) / float64(len(texts))
}
