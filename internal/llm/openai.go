package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// OpenAIClient implements ChatModel against any OpenAI-compatible
// chat-completions endpoint (api.openai.com, Anyscale Endpoints, vLLM,
// llama.cpp server, ...). The reproduction runs fully offline on the
// Simulated model; this client exists so the identical pipeline can be
// pointed at a real provider — swap the constructor and nothing else
// changes.
//
// Each Chat is exactly one HTTP exchange carrying the caller's ctx.
// Failures carry typed categories — errors.Is(err, ErrRateLimited),
// ErrUnavailable (both retryable, with any Retry-After header attached
// as a RetryAfterError) and ErrBadResponse (not). Retries and pacing
// are middleware concerns; the documented stack is
//
//	NewMetered(NewCache(NewRetry(NewRateLimiter(client, qps, burst))))
//
// so every attempt, retries included, waits for its own rate slot.
type OpenAIClient struct {
	// BaseURL is the API root, e.g. "https://api.openai.com/v1".
	BaseURL string
	// APIKey is sent as a bearer token when non-empty.
	APIKey string
	// Model is the provider model identifier.
	Model string
	// PromptPrice/CompletionPrice are USD per 1M tokens, used for the
	// Meter's cost accounting (the API does not return prices).
	PromptPrice, CompletionPrice float64
	// HTTPClient overrides the default client (30s timeout).
	HTTPClient *http.Client
}

// NewOpenAI constructs a client for an OpenAI-compatible endpoint with
// the default HTTP client. Set PromptPrice/CompletionPrice for Meter
// cost accounting, and HTTPClient to substitute the transport.
//
//	c := llm.NewOpenAI(url, key, "gpt-4o-mini")
//	c.PromptPrice, c.CompletionPrice = 0.15, 0.60
//	llm.NewRetry(llm.NewRateLimiter(c, 2, 4))
func NewOpenAI(baseURL, apiKey, model string) *OpenAIClient {
	return &OpenAIClient{
		BaseURL:    baseURL,
		APIKey:     apiKey,
		Model:      model,
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	}
}

// ModelName implements ChatModel.
func (c *OpenAIClient) ModelName() string { return c.Model }

// Pricing implements ChatModel.
func (c *OpenAIClient) Pricing() (float64, float64) {
	return c.PromptPrice, c.CompletionPrice
}

// chatRequest mirrors the chat-completions request body.
type chatRequest struct {
	Model       string        `json:"model"`
	Messages    []chatMessage `json:"messages"`
	Temperature float64       `json:"temperature"`
	N           int           `json:"n"`
}

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// chatResponse mirrors the response body (the fields this client needs).
type chatResponse struct {
	Choices []struct {
		Message chatMessage `json:"message"`
	} `json:"choices"`
	Usage struct {
		PromptTokens     int `json:"prompt_tokens"`
		CompletionTokens int `json:"completion_tokens"`
	} `json:"usage"`
	Error *struct {
		Message string `json:"message"`
		Type    string `json:"type"`
	} `json:"error"`
}

// Chat implements ChatModel.
func (c *OpenAIClient) Chat(ctx context.Context, messages []Message, temperature float64, n int) ([]Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: n=%d samples requested", ErrBadResponse, n)
	}
	body := chatRequest{
		Model:       c.Model,
		Temperature: temperature,
		N:           n,
	}
	for _, m := range messages {
		body.Messages = append(body.Messages, chatMessage{Role: string(m.Role), Content: m.Content})
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("llm: encoding request: %w", err)
	}

	client := c.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return c.doRequest(ctx, client, payload)
}

// parseRetryAfter decodes a Retry-After header: delay-seconds or an
// HTTP date.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// doRequest performs one HTTP round trip.
func (c *OpenAIClient) doRequest(ctx context.Context, client *http.Client, payload []byte) ([]Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/chat/completions", bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("llm: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	httpResp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 10<<20))
	if err != nil {
		return nil, fmt.Errorf("%w: reading response: %v", ErrUnavailable, err)
	}
	if httpResp.StatusCode == http.StatusTooManyRequests {
		err := fmt.Errorf("%w: status 429: %.200s", ErrRateLimited, raw)
		if after, ok := parseRetryAfter(httpResp.Header.Get("Retry-After")); ok {
			return nil, &RetryAfterError{After: after, Err: err}
		}
		return nil, err
	}
	if httpResp.StatusCode >= 500 {
		err := fmt.Errorf("%w: status %d: %.200s", ErrUnavailable, httpResp.StatusCode, raw)
		if after, ok := parseRetryAfter(httpResp.Header.Get("Retry-After")); ok {
			return nil, &RetryAfterError{After: after, Err: err}
		}
		return nil, err
	}
	var parsed chatResponse
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return nil, fmt.Errorf("%w: decoding body: %v", ErrBadResponse, err)
	}
	if parsed.Error != nil {
		return nil, fmt.Errorf("%w: API error (%s): %s", ErrBadResponse, parsed.Error.Type, parsed.Error.Message)
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: status %d: %.200s", ErrBadResponse, httpResp.StatusCode, raw)
	}
	if len(parsed.Choices) == 0 {
		return nil, fmt.Errorf("%w: response has no choices", ErrBadResponse)
	}
	out := make([]Response, len(parsed.Choices))
	// The API reports usage for the whole call; attribute the prompt to
	// the first choice and split completion tokens evenly so the Meter's
	// totals match the billed numbers.
	per := parsed.Usage.CompletionTokens / len(parsed.Choices)
	for i, choice := range parsed.Choices {
		out[i] = Response{
			Content: choice.Message.Content,
			Usage:   Usage{CompletionTokens: per},
		}
	}
	out[0].Usage.PromptTokens = parsed.Usage.PromptTokens
	out[0].Usage.CompletionTokens += parsed.Usage.CompletionTokens - per*len(parsed.Choices)
	return out, nil
}
