package serve_test

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"datasculpt/internal/serve"
)

// TestServeCaptureHook pins the growth loop's feed point: every
// admitted request's texts reach Options.Capture exactly once, on the
// caller's goroutine, and shed requests never reach it — the capture
// reservoir must sample served traffic, not rejected traffic.
func TestServeCaptureHook(t *testing.T) {
	const depth = 2
	var (
		mu       sync.Mutex
		captured []string
	)
	s, _, d := newServer(t, serve.Options{
		MaxBatch: 1, QueueDepth: depth,
		Capture: func(texts []string) {
			mu.Lock()
			captured = append(captured, texts...)
			mu.Unlock()
		},
	})

	h := holdLoop(s)

	var wg sync.WaitGroup
	admitted := []string{d.Valid[0].Text, d.Valid[1].Text, d.Valid[2].Text}
	label := func(text string) {
		defer wg.Done()
		if _, err := s.Label(context.Background(), []string{text}, false); err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}

	// Seed a batch and park the loop, then fill the queue to its bound.
	wg.Add(1)
	go label(admitted[0])
	<-h.held
	for _, text := range admitted[1:] {
		wg.Add(1)
		go label(text)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(captured)
		mu.Unlock()
		if n == len(admitted) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("captured %d texts while filling the queue, want %d", n, len(admitted))
		}
		time.Sleep(time.Millisecond)
	}

	// Shed requests must not be captured.
	if _, err := s.Label(context.Background(), []string{"overflow"}, false); err != serve.ErrOverloaded {
		t.Fatalf("overflow: err = %v, want ErrOverloaded", err)
	}
	// Neither are empty (rejected) requests.
	if _, err := s.Label(context.Background(), nil, false); err == nil {
		t.Fatal("empty request accepted")
	}

	close(h.release)
	wg.Wait()

	mu.Lock()
	got := append([]string(nil), captured...)
	mu.Unlock()
	want := append([]string(nil), admitted...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("captured %d texts, want %d (%q)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("captured texts diverged: %q vs %q", got, want)
		}
	}
}
