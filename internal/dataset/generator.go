package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"datasculpt/internal/textproc"
)

// WeightedPhrase is a spec-level indicative phrase with usage weight and
// design precision (see KeywordSignal).
type WeightedPhrase struct {
	Phrase   string
	Weight   float64
	Strength float64
}

// ClassSpec describes one class of a synthetic dataset.
type ClassSpec struct {
	// Name is the human-readable class name used in prompts.
	Name string
	// Keywords are the class's indicative phrases. Their count controls
	// per-LF coverage: larger pools spread the signal thinner, which is
	// how Agnews reproduces the paper's very low (0.003) per-LF coverage.
	Keywords []WeightedPhrase
	// Topics are weak-signal filler words mixed into documents of this
	// class at Spec.TopicRate. They let the end model generalize beyond
	// keyword boundaries, the role BERT features play in the paper.
	Topics []string
}

// Spec fully describes a synthetic dataset generator. All randomness comes
// from the seed passed to Generate, so a (Spec, seed) pair is reproducible.
type Spec struct {
	Name    string
	Task    TaskType
	Classes []ClassSpec
	// Priors are class marginals; they must sum to ~1.
	Priors []float64
	// Split sizes (Table 1 of the paper).
	TrainSize, ValidSize, TestSize int
	// Document length profile (tokens). IMDB/Yelp are long, Youtube/SMS
	// short; lengths drive the LLM token accounting of Figures 3-4.
	MeanLen, StdLen int
	// KeywordRate is the Poisson mean of indicative-keyword insertions
	// per (non-hard) document.
	KeywordRate float64
	// CrossNoise is the probability that a keyword insertion draws from a
	// *wrong* class pool (weighted toward weak keywords). It bounds LF
	// precision away from 1.
	CrossNoise float64
	// HardFraction is the share of documents generated without any
	// indicative keywords or topic words: irreducibly hard instances that
	// keep total LF coverage below 1 and end-model accuracy in the
	// paper's bands.
	HardFraction float64
	// TopicRate is the per-token probability of drawing from the class's
	// topic pool instead of neutral filler.
	TopicRate float64
	// DefaultClass, Imbalanced, TrainLabeled mirror the Dataset fields.
	DefaultClass int
	Imbalanced   bool
	TrainLabeled bool
	// Filler is extra domain-flavoured neutral vocabulary appended to the
	// shared background pool.
	Filler []string
	// TaskDescription and InstanceNoun feed the prompt templates.
	TaskDescription string
	InstanceNoun    string
	// DistractorRate (relation tasks only) is the probability that a
	// passage carries a second, non-target entity pair with its own
	// relation phrase — the cases entity-aware LFs exist to get right.
	DistractorRate float64
}

// Generate builds the dataset with the given seed. scale resizes every
// split proportionally: values in (0,1) shrink them (floored at small
// minimums) so tests and examples can run quickly, scale 1 reproduces the
// paper's Table 1 sizes, and scale > 1 grows the corpus for out-of-core
// experiments (e.g. 100 yields a 100x train split from the same spec).
func (s *Spec) Generate(seed int64, scale float64) (*Dataset, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("spec %s: scale %v must be positive", s.Name, scale)
	}
	signals := make([]KeywordSignal, 0, 256)
	for c, cs := range s.Classes {
		for _, kw := range cs.Keywords {
			phrase, n := textproc.NormalizePhrase(kw.Phrase)
			if n == 0 || n > textproc.MaxKeywordLen {
				return nil, fmt.Errorf("spec %s: keyword %q not a 1-3 gram", s.Name, kw.Phrase)
			}
			signals = append(signals, KeywordSignal{
				Phrase:   phrase,
				Class:    c,
				Strength: kw.Strength,
				Weight:   kw.Weight,
			})
		}
	}
	table, err := NewSignalTable(len(s.Classes), signals)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", s.Name, err)
	}

	g := &generator{
		spec:  s,
		table: table,
		rng:   rand.New(rand.NewSource(seed)),
	}
	if err := g.prepare(); err != nil {
		return nil, err
	}

	scaled := func(n, min int) int {
		v := int(math.Round(float64(n) * scale))
		if v < min {
			v = min
		}
		return v
	}
	d := &Dataset{
		Name:            s.Name,
		Task:            s.Task,
		ClassNames:      classNames(s.Classes),
		DefaultClass:    s.DefaultClass,
		Imbalanced:      s.Imbalanced,
		TrainLabeled:    s.TrainLabeled,
		Signal:          table,
		TaskDescription: s.TaskDescription,
		InstanceNoun:    s.InstanceNoun,
	}
	d.Train = g.split(scaled(s.TrainSize, 60), s.TrainLabeled)
	d.Valid = g.split(scaled(s.ValidSize, 24), true)
	d.Test = g.split(scaled(s.TestSize, 24), true)
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("generated dataset invalid: %w", err)
	}
	return d, nil
}

func (s *Spec) validate() error {
	if len(s.Classes) < 2 {
		return fmt.Errorf("spec %s: need >=2 classes", s.Name)
	}
	if len(s.Priors) != len(s.Classes) {
		return fmt.Errorf("spec %s: %d priors for %d classes", s.Name, len(s.Priors), len(s.Classes))
	}
	var sum float64
	for _, p := range s.Priors {
		if p <= 0 {
			return fmt.Errorf("spec %s: non-positive prior", s.Name)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("spec %s: priors sum to %v, want 1", s.Name, sum)
	}
	if s.MeanLen < 5 {
		return fmt.Errorf("spec %s: mean length %d too short", s.Name, s.MeanLen)
	}
	if s.CrossNoise < 0 || s.CrossNoise >= 1 {
		return fmt.Errorf("spec %s: cross noise %v outside [0,1)", s.Name, s.CrossNoise)
	}
	if s.HardFraction < 0 || s.HardFraction >= 1 {
		return fmt.Errorf("spec %s: hard fraction %v outside [0,1)", s.Name, s.HardFraction)
	}
	return nil
}

func classNames(classes []ClassSpec) []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = c.Name
	}
	return out
}

// generator holds the per-run sampling state.
type generator struct {
	spec  *Spec
	table *SignalTable
	rng   *rand.Rand

	filler []string // background + domain filler, minus keyword unigrams
	// per-class cumulative keyword weights for O(log n) sampling
	kwCum [][]float64
	// per-class cross-contamination pools: (1-strength)-weighted
	crossCum [][]float64
	nextID   int
}

// prepare precomputes sampling tables and scrubs keyword unigrams out of
// the filler pools so filler can never silently act as class signal.
func (g *generator) prepare() error {
	kwTokens := make(map[string]struct{})
	for c := range g.spec.Classes {
		for _, s := range g.table.Class(c) {
			kwTokens[s.Phrase] = struct{}{}
		}
	}
	pool := make([]string, 0, len(backgroundWords)+len(g.spec.Filler))
	for _, w := range append(append([]string{}, backgroundWords...), g.spec.Filler...) {
		if _, bad := kwTokens[w]; bad {
			continue
		}
		if textproc.IsStopword(w) {
			continue
		}
		pool = append(pool, w)
	}
	if len(pool) < 50 {
		return fmt.Errorf("spec %s: filler pool too small (%d)", g.spec.Name, len(pool))
	}
	g.filler = pool

	k := g.table.NumClasses()
	g.kwCum = make([][]float64, k)
	g.crossCum = make([][]float64, k)
	for c := 0; c < k; c++ {
		list := g.table.Class(c)
		cum := make([]float64, len(list))
		cross := make([]float64, len(list))
		var acc, accX float64
		for i, s := range list {
			acc += s.Weight
			cum[i] = acc
			// Weak keywords leak into other classes more than strong ones.
			accX += s.Weight * (1.05 - s.Strength)
			cross[i] = accX
		}
		g.kwCum[c] = cum
		g.crossCum[c] = cross
	}
	// Topic words must not shadow keywords either.
	for ci, cs := range g.spec.Classes {
		for _, t := range cs.Topics {
			if _, bad := kwTokens[t]; bad {
				return fmt.Errorf("spec %s: class %d topic %q collides with a keyword", g.spec.Name, ci, t)
			}
		}
	}
	return nil
}

func (g *generator) split(n int, labeled bool) []*Example {
	out := make([]*Example, n)
	for i := 0; i < n; i++ {
		var e *Example
		if g.spec.Task == RelationClassification {
			e = g.relationExample()
		} else {
			e = g.textExample()
		}
		e.ID = i
		if !labeled {
			e.Label = NoLabel
		}
		out[i] = e
	}
	return out
}

// sampleClass draws a class from the priors.
func (g *generator) sampleClass() int {
	r := g.rng.Float64()
	var acc float64
	for c, p := range g.spec.Priors {
		acc += p
		if r < acc {
			return c
		}
	}
	return len(g.spec.Priors) - 1
}

// sampleCum draws an index from a cumulative weight table.
func sampleCum(rng *rand.Rand, cum []float64) int {
	total := cum[len(cum)-1]
	r := rng.Float64() * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sampleKeyword draws a phrase for class c: an own-class keyword by
// weight, or — with probability CrossNoise — a wrong-class keyword
// weighted toward weak phrases.
func (g *generator) sampleKeyword(c int) KeywordSignal {
	if g.table.NumClasses() > 1 && g.rng.Float64() < g.spec.CrossNoise {
		other := g.rng.Intn(g.table.NumClasses() - 1)
		if other >= c {
			other++
		}
		idx := sampleCum(g.rng, g.crossCum[other])
		return g.table.Class(other)[idx]
	}
	idx := sampleCum(g.rng, g.kwCum[c])
	return g.table.Class(c)[idx]
}

func (g *generator) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 50 {
			return k
		}
	}
}

func (g *generator) docLen() int {
	l := int(math.Round(float64(g.spec.MeanLen) + g.rng.NormFloat64()*float64(g.spec.StdLen)))
	min := 5
	if l < min {
		l = min
	}
	return l
}

func (g *generator) fillerWord(class int, hard bool) string {
	cs := g.spec.Classes[class]
	if !hard && len(cs.Topics) > 0 && g.rng.Float64() < g.spec.TopicRate {
		return cs.Topics[g.rng.Intn(len(cs.Topics))]
	}
	return g.filler[g.rng.Intn(len(g.filler))]
}

// textExample generates one text-classification passage.
func (g *generator) textExample() *Example {
	c := g.sampleClass()
	hard := g.rng.Float64() < g.spec.HardFraction
	l := g.docLen()
	tokens := make([]string, 0, l+8)
	for i := 0; i < l; i++ {
		tokens = append(tokens, g.fillerWord(c, hard))
	}
	if !hard {
		n := g.poisson(g.spec.KeywordRate)
		if n == 0 {
			n = 1 // non-hard documents always carry at least one signal
		}
		for i := 0; i < n; i++ {
			kw := g.sampleKeyword(c)
			tokens = insertPhrase(g.rng, tokens, kw.Phrase)
		}
	} else if g.rng.Float64() < g.spec.CrossNoise {
		// Hard documents occasionally carry a stray (often weak) keyword
		// from a random class: false-positive mass for imprecise LFs.
		oc := g.rng.Intn(g.table.NumClasses())
		idx := sampleCum(g.rng, g.crossCum[oc])
		tokens = insertPhrase(g.rng, tokens, g.table.Class(oc)[idx].Phrase)
	}
	return &Example{
		Text:   strings.Join(tokens, " "),
		Tokens: tokens,
		Label:  c,
		E1Pos:  -1,
		E2Pos:  -1,
	}
}

// insertPhrase splices the phrase's tokens at a random position, in
// place when tokens has the capacity.
func insertPhrase(rng *rand.Rand, tokens []string, phrase string) []string {
	pos := rng.Intn(len(tokens) + 1)
	return slices.Insert(tokens, pos, strings.Split(phrase, " ")...)
}

// relationExample generates one Spouse-style passage: a target entity pair
// with a relation (or non-relation) phrase between the mentions, plus an
// optional distractor pair elsewhere in the passage.
func (g *generator) relationExample() *Example {
	c := g.sampleClass()
	hard := g.rng.Float64() < g.spec.HardFraction

	e1First := firstNames[g.rng.Intn(len(firstNames))]
	e1Last := lastNames[g.rng.Intn(len(lastNames))]
	e2First := firstNames[g.rng.Intn(len(firstNames))]
	for e2First == e1First {
		e2First = firstNames[g.rng.Intn(len(firstNames))]
	}
	e2Last := lastNames[g.rng.Intn(len(lastNames))]

	lead := g.fillerSeq(c, hard, 3+g.rng.Intn(5))
	var between []string
	if hard {
		between = g.fillerSeq(c, true, 2+g.rng.Intn(3))
	} else {
		kw := g.sampleKeyword(c)
		between = append(between, strings.Split(kw.Phrase, " ")...)
		if g.rng.Float64() < 0.5 {
			between = append(g.fillerSeq(c, false, 1), between...)
		}
	}
	target := g.docLen()
	tailLen := target - len(lead) - len(between) - 4
	if tailLen < 4 {
		tailLen = 4
	}
	tail := g.fillerSeq(c, hard, tailLen)

	tokens := make([]string, 0, target+16)
	tokens = append(tokens, lead...)
	e1Pos := len(tokens)
	tokens = append(tokens, e1First, e1Last)
	tokens = append(tokens, between...)
	e2Pos := len(tokens)
	tokens = append(tokens, e2First, e2Last)
	tokens = append(tokens, tail...)

	// Distractor pair with its own relation phrase, placed well outside
	// the target window: keyword-present-but-wrong-pair noise that plain
	// keyword LFs would mislabel and entity-aware LFs must ignore.
	if g.rng.Float64() < g.spec.DistractorRate {
		d1 := firstNames[g.rng.Intn(len(firstNames))]
		d2 := firstNames[g.rng.Intn(len(firstNames))]
		dc := g.rng.Intn(g.table.NumClasses())
		idx := sampleCum(g.rng, g.kwCum[dc])
		phrase := strings.Split(g.table.Class(dc)[idx].Phrase, " ")
		tokens = append(tokens, g.fillerSeq(c, true, 3)...)
		tokens = append(tokens, d1)
		tokens = append(tokens, phrase...)
		tokens = append(tokens, d2)
	}

	return &Example{
		Text:    strings.Join(tokens, " "),
		Tokens:  tokens,
		Label:   c,
		Entity1: e1First + " " + e1Last,
		Entity2: e2First + " " + e2Last,
		E1Pos:   e1Pos,
		E2Pos:   e2Pos,
	}
}

func (g *generator) fillerSeq(class int, hard bool, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.fillerWord(class, hard)
	}
	return out
}
