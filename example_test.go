package datasculpt_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"datasculpt"
)

// ExampleRun demonstrates the minimal pipeline flow. (A tiny scale and
// iteration count keep the doc example fast; real runs use the defaults.)
func ExampleRun() {
	d, err := datasculpt.LoadDataset("youtube", 1, 0.05)
	if err != nil {
		panic(err)
	}
	cfg := datasculpt.DefaultConfig(datasculpt.VariantBase)
	cfg.Seed = 1
	cfg.Iterations = 5
	res, err := datasculpt.Run(d, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.NumLFs > 0, res.Calls)
	// Output: true 5
}

// ExampleNewKeywordLF shows manual LF construction and application.
func ExampleNewKeywordLF() {
	f, err := datasculpt.NewKeywordLF("Free Gift", 1)
	if err != nil {
		panic(err)
	}
	e := &datasculpt.Example{Text: "claim your FREE gift now", E1Pos: -1, E2Pos: -1}
	fmt.Println(f.Keyword, f.Apply(e))
	// Output: free gift 1
}

// ExampleMarshalLFs shows LF-set persistence.
func ExampleMarshalLFs() {
	spam, _ := datasculpt.NewKeywordLF("prize", 1)
	data, err := datasculpt.MarshalLFs([]datasculpt.LabelFunction{spam})
	if err != nil {
		panic(err)
	}
	back, err := datasculpt.UnmarshalLFs(data)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(back), back[0].Name())
	// Output: 1 kw:"prize"->1
}

// ExampleNewOpenAI runs the pipeline on the README's middleware stack
// over an OpenAI-compatible endpoint. A local stub stands in for the
// provider here; point NewOpenAI at a real base URL and key instead.
func ExampleNewOpenAI() {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"choices":[{"message":{"content":"Keywords: subscribe\nLabel: 1"}}],`+
			`"usage":{"prompt_tokens":100,"completion_tokens":8}}`)
	}))
	defer srv.Close()

	model := datasculpt.NewMetered(
		datasculpt.NewCache(
			datasculpt.NewRetry(
				datasculpt.NewRateLimiter(
					datasculpt.NewOpenAI(srv.URL, "sk-test", "gpt-3.5-turbo"), 2, 4))))

	d, err := datasculpt.LoadDataset("youtube", 1, 0.05)
	if err != nil {
		panic(err)
	}
	// Zero fields take the paper's defaults (Base variant, all filters).
	// Three iterations stay within the limiter's burst of 4, so no call
	// waits for pacing.
	cfg := datasculpt.Config{Seed: 1, Iterations: 3, ChatModel: model}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := datasculpt.RunContext(ctx, d, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.NumLFs, res.Calls, model.Meter().TotalTokens())
	// Output: 1 3 324
}

// stubModel is a provider client written outside this module: any type
// with these three methods is a ChatModel. It wraps its failures in the
// sentinel errors so NewRetry can tell transient ones from permanent.
type stubModel struct{ calls int }

func (m *stubModel) ModelName() string                               { return "stub" }
func (m *stubModel) Pricing() (promptPer1M, completionPer1M float64) { return 0, 0 }

func (m *stubModel) Chat(ctx context.Context, msgs []datasculpt.Message, temperature float64, n int) ([]datasculpt.Response, error) {
	m.calls++
	return nil, fmt.Errorf("stub: reply has no choices: %w", datasculpt.ErrBadResponse)
}

// ExampleChatModel shows NewRetry failing fast on a permanent error from
// an outside ChatModel: one attempt, no backoff.
func ExampleChatModel() {
	stub := &stubModel{}
	var model datasculpt.ChatModel = datasculpt.NewRetry(stub)
	_, err := model.Chat(context.Background(), []datasculpt.Message{{Role: "user", Content: "hi"}}, 0, 1)
	fmt.Println(errors.Is(err, datasculpt.ErrBadResponse), stub.calls)
	// Output: true 1
}
