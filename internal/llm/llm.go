// Package llm defines the chat-model abstraction DataSculpt prompts
// against and provides a deterministic simulated LLM that stands in for
// the OpenAI (GPT-3.5, GPT-4) and Anyscale (Llama2-CHAT) endpoints the
// paper uses.
//
// The framework observes an LLM only through prompt-in/text-out plus
// billed token counts, so the simulator reproduces exactly the behaviours
// the paper measures: few-shot keyword extraction of varying fidelity per
// model tier, chain-of-thought and in-context-example quality effects,
// format violations that the validity filter must catch, reluctance to
// produce negative-class keywords (the default-class motivation), and
// per-token pricing for the cost analysis of Figures 3-4. See DESIGN.md
// §2 for the substitution argument and the calibration targets.
package llm

import (
	"context"
	"fmt"
	"sync"

	"datasculpt/internal/textproc"
)

// Role of a chat message.
type Role string

// Chat roles, mirroring the OpenAI chat format.
const (
	System Role = "system"
	User   Role = "user"
)

// Message is one chat turn.
type Message struct {
	Role    Role
	Content string
}

// Usage records billed token counts of one call.
type Usage struct {
	PromptTokens     int
	CompletionTokens int
}

// Total returns prompt+completion tokens.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// Add accumulates another usage record.
func (u *Usage) Add(o Usage) {
	u.PromptTokens += o.PromptTokens
	u.CompletionTokens += o.CompletionTokens
}

// Response is one sampled completion.
type Response struct {
	Content string
	Usage   Usage
}

// ChatModel is the provider abstraction: everything DataSculpt needs from
// an LLM endpoint. A production deployment would implement it with an
// HTTP client; this repo implements it with Simulated. Implementations
// must be safe for concurrent use: one model instance may serve many
// pipeline runs at once (see Cache, RateLimiter, Metered).
type ChatModel interface {
	// ModelName returns the provider model identifier.
	ModelName() string
	// Chat samples n completions for the conversation at the given
	// temperature and reports per-sample usage. It honors ctx
	// cancellation: long waits (HTTP round trips, retry backoff, rate
	// limiting) abort when ctx is done.
	Chat(ctx context.Context, messages []Message, temperature float64, n int) ([]Response, error)
	// Pricing returns the model's dollar cost per 1M prompt and
	// completion tokens.
	Pricing() (promptPer1M, completionPer1M float64)
}

// MeterSnapshot is a consistent point-in-time copy of a Meter's counters.
type MeterSnapshot struct {
	Calls            int
	PromptTokens     int
	CompletionTokens int
	CostUSD          float64
}

// TotalTokens returns prompt+completion tokens of the snapshot.
func (s MeterSnapshot) TotalTokens() int { return s.PromptTokens + s.CompletionTokens }

// Meter accumulates usage and cost across calls to one model. It is
// mutex-guarded, so a single meter can serve many concurrent pipeline
// runs (wrap the shared model with NewMetered, or call Record directly).
type Meter struct {
	model           string
	promptPer1M     float64
	completionPer1M float64

	mu               sync.Mutex
	calls            int
	promptTokens     int
	completionTokens int
}

// NewMeter creates a meter priced for the given model.
func NewMeter(m ChatModel) *Meter {
	p, c := m.Pricing()
	return &Meter{model: m.ModelName(), promptPer1M: p, completionPer1M: c}
}

// Record accumulates the usage of one call's responses.
func (mt *Meter) Record(responses []Response) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.calls++
	for _, r := range responses {
		mt.promptTokens += r.Usage.PromptTokens
		mt.completionTokens += r.Usage.CompletionTokens
	}
}

// Calls returns how many Chat calls have been recorded.
func (mt *Meter) Calls() int {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.calls
}

// PromptTokens returns all billed prompt tokens so far.
func (mt *Meter) PromptTokens() int {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.promptTokens
}

// CompletionTokens returns all billed completion tokens so far.
func (mt *Meter) CompletionTokens() int {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.completionTokens
}

// TotalTokens returns all billed tokens so far.
func (mt *Meter) TotalTokens() int {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.promptTokens + mt.completionTokens
}

// CostUSD returns the accumulated dollar cost.
func (mt *Meter) CostUSD() float64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.costLocked()
}

func (mt *Meter) costLocked() float64 {
	return float64(mt.promptTokens)/1e6*mt.promptPer1M +
		float64(mt.completionTokens)/1e6*mt.completionPer1M
}

// Snapshot returns a consistent copy of every counter.
func (mt *Meter) Snapshot() MeterSnapshot {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return MeterSnapshot{
		Calls:            mt.calls,
		PromptTokens:     mt.promptTokens,
		CompletionTokens: mt.completionTokens,
		CostUSD:          mt.costLocked(),
	}
}

// String summarizes the meter.
func (mt *Meter) String() string {
	s := mt.Snapshot()
	return fmt.Sprintf("%s: %d calls, %d prompt + %d completion tokens, $%.4f",
		mt.model, s.Calls, s.PromptTokens, s.CompletionTokens, s.CostUSD)
}

// CountMessageTokens estimates the billed prompt tokens of a message
// list, including a small per-message framing overhead as the OpenAI
// chat format incurs.
func CountMessageTokens(messages []Message) int {
	total := 0
	for _, m := range messages {
		total += textproc.ApproxLLMTokens(m.Content) + 4
	}
	return total
}
