package serve_test

import (
	"context"
	"errors"
	"testing"

	"datasculpt/internal/obs"
	"datasculpt/internal/serve"
)

// TestRequestSecondsCountsServedOnly pins serve_request_seconds{tenant}
// to successful requests: a shed request and a cancelled one are not
// observed, the two answered ones are.
func TestRequestSecondsCountsServedOnly(t *testing.T) {
	s, reg, d := newServer(t, serve.Options{MaxBatch: 1, QueueDepth: 1})
	h := holdLoop(s)

	first := labelAsync(t, s, []string{d.Valid[0].Text})
	<-h.held
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Label(ctx, []string{d.Valid[1].Text}, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
	}
	waitQueued(t, reg, 1)
	if _, err := s.Label(context.Background(), []string{d.Valid[2].Text}, false); err != serve.ErrOverloaded {
		t.Fatalf("request over the queue bound: err = %v, want ErrOverloaded", err)
	}
	close(h.release)
	first()
	if _, err := s.Label(context.Background(), []string{d.Valid[3].Text}, false); err != nil {
		t.Fatal(err)
	}

	vec, _ := reg.Snapshot()["serve_request_seconds"].(map[string]any)
	got, _ := vec[`tenant="default"`].(obs.HistogramSnapshot)
	if got.Count != 2 {
		t.Errorf("serve_request_seconds count = %d, want 2 (shed and cancelled requests excluded)", got.Count)
	}
	if got.Sum <= 0 {
		t.Errorf("serve_request_seconds sum = %v, want > 0", got.Sum)
	}
}
