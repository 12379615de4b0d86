package llm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datasculpt/internal/obs"
)

// fakeEndpoint serves an OpenAI-compatible chat-completions API for tests.
func fakeEndpoint(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/chat/completions", handler)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func okResponse(contents []string, promptTokens, completionTokens int) map[string]any {
	choices := make([]map[string]any, len(contents))
	for i, c := range contents {
		choices[i] = map[string]any{"message": map[string]any{"role": "assistant", "content": c}}
	}
	return map[string]any{
		"choices": choices,
		"usage": map[string]any{
			"prompt_tokens":     promptTokens,
			"completion_tokens": completionTokens,
		},
	}
}

func TestOpenAIClientChat(t *testing.T) {
	var gotAuth, gotModel string
	var gotN int
	srv := fakeEndpoint(t, func(w http.ResponseWriter, r *http.Request) {
		gotAuth = r.Header.Get("Authorization")
		var req map[string]any
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad request body: %v", err)
		}
		gotModel = req["model"].(string)
		gotN = int(req["n"].(float64))
		json.NewEncoder(w).Encode(okResponse(
			[]string{"Keywords: free\nLabel: 1", "Keywords: cash\nLabel: 1"}, 120, 21))
	})
	c := NewOpenAI(srv.URL+"/v1", "sk-test", "gpt-3.5-turbo")
	c.PromptPrice, c.CompletionPrice = 1.5, 2.0
	resp, err := c.Chat(context.Background(), []Message{
		{Role: System, Content: "task"},
		{Role: User, Content: "Query: free cash"},
	}, 0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gotAuth != "Bearer sk-test" {
		t.Errorf("auth header = %q", gotAuth)
	}
	if gotModel != "gpt-3.5-turbo" || gotN != 2 {
		t.Errorf("request model/n = %q/%d", gotModel, gotN)
	}
	if len(resp) != 2 {
		t.Fatalf("responses = %d", len(resp))
	}
	if !strings.Contains(resp[0].Content, "free") {
		t.Errorf("content = %q", resp[0].Content)
	}
	// usage is attributed so the totals match the API's numbers
	total := Usage{}
	for _, r := range resp {
		total.Add(r.Usage)
	}
	if total.PromptTokens != 120 || total.CompletionTokens != 21 {
		t.Errorf("total usage = %+v", total)
	}
	// meter cost follows the configured prices
	m := NewMeter(c)
	m.Record(resp)
	want := 120.0/1e6*1.5 + 21.0/1e6*2.0
	if m.CostUSD() != want {
		t.Errorf("cost = %v, want %v", m.CostUSD(), want)
	}
}

// TestOpenAIClientRetriesOn429 drives the documented stack,
// Metered(Cache(Retry(RateLimiter(client)))), through two 429s: Retry
// re-issues them, each attempt is one request, and the caller sees one
// metered success.
func TestOpenAIClientRetriesOn429(t *testing.T) {
	var calls atomic.Int32
	srv := fakeEndpoint(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(okResponse([]string{"Keywords: x\nLabel: 0"}, 10, 5))
	})
	reg := obs.NewRegistry()
	retry := NewRetry(NewRateLimiter(NewOpenAI(srv.URL+"/v1", "", "m"), 1000, 4),
		WithRetryBackoff(time.Millisecond, time.Millisecond)).Instrument(reg)
	stack := NewMetered(NewCache(retry))
	resp, err := stack.Chat(context.Background(), []Message{{Role: User, Content: "Query: x"}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || calls.Load() != 3 {
		t.Errorf("responses=%d calls=%d, want 1 and 3", len(resp), calls.Load())
	}
	if got := reg.CounterValue("llm_retries_total"); got != 2 {
		t.Errorf("llm_retries_total = %v, want 2", got)
	}
	if got := stack.Stats().Calls; got != 1 {
		t.Errorf("metered calls = %d, want 1", got)
	}
}

func TestOpenAIClientSurfacesAPIErrors(t *testing.T) {
	srv := fakeEndpoint(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnauthorized)
		json.NewEncoder(w).Encode(map[string]any{
			"error": map[string]any{"message": "bad key", "type": "invalid_request_error"},
		})
	})
	c := NewOpenAI(srv.URL+"/v1", "wrong", "m")
	if _, err := c.Chat(context.Background(), []Message{{Role: User, Content: "Query: x"}}, 0, 1); err == nil {
		t.Fatal("401 with API error accepted")
	} else if !strings.Contains(err.Error(), "bad key") {
		t.Errorf("error does not surface API message: %v", err)
	}
}

func TestOpenAIClientGivesUpAfterRetries(t *testing.T) {
	var calls atomic.Int32
	srv := fakeEndpoint(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	})
	r := NewRetry(NewOpenAI(srv.URL+"/v1", "", "m"),
		WithRetryAttempts(3), WithRetryBackoff(time.Millisecond, time.Millisecond))
	if _, err := r.Chat(context.Background(), []Message{{Role: User, Content: "Query: x"}}, 0, 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("persistent 500s: err = %v, want ErrUnavailable", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3 (the attempt budget)", calls.Load())
	}
}

func TestOpenAIClientRejectsEmptyChoices(t *testing.T) {
	srv := fakeEndpoint(t, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"choices": []any{}})
	})
	c := NewOpenAI(srv.URL+"/v1", "", "m")
	if _, err := c.Chat(context.Background(), []Message{{Role: User, Content: "Query: x"}}, 0, 1); err == nil {
		t.Fatal("empty choices accepted")
	}
	if _, err := c.Chat(context.Background(), []Message{{Role: User, Content: "x"}}, 0, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestOpenAIOneExchangePerChat pins the client as a plain transport:
// whatever the response class, one Chat sends exactly one request and
// classifies the outcome; re-issuing is the Retry middleware's job.
func TestOpenAIOneExchangePerChat(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
		want    error // nil for success
		after   time.Duration
	}{
		{"ok", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(okResponse([]string{"Label: 1"}, 3, 1))
		}, nil, 0},
		{"5xx with Retry-After", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusBadGateway)
		}, ErrUnavailable, 3 * time.Second},
		{"malformed body", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{not json`)
		}, ErrBadResponse, 0},
		{"transport error", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
		}, ErrUnavailable, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			srv := fakeEndpoint(t, func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				tc.handler(w, r)
			})
			_, err := NewOpenAI(srv.URL+"/v1", "", "m").Chat(context.Background(), msg("Query: x"), 0, 1)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if after, _ := RetryAfter(err); after != tc.after {
				t.Errorf("Retry-After hint = %v, want %v", after, tc.after)
			}
			if calls.Load() != 1 {
				t.Errorf("requests = %d, want exactly 1", calls.Load())
			}
		})
	}
}
