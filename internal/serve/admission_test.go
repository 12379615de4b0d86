package serve_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"datasculpt/internal/obs"
	"datasculpt/internal/serve"
)

func gaugeValue(reg *obs.Registry, name string) float64 {
	switch v := reg.Snapshot()[name].(type) {
	case float64:
		return v
	case map[string]any: // gauge vector: sum the tenant series
		var sum float64
		for _, sv := range v {
			f, _ := sv.(float64)
			sum += f
		}
		return sum
	}
	return 0
}

func waitCounter(t *testing.T, read func() float64, want float64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if read() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: got %v, want %v", what, read(), want)
}

// waitQueued waits until the queue holds exactly n admitted texts.
func waitQueued(t *testing.T, reg *obs.Registry, n int) {
	t.Helper()
	waitCounter(t, func() float64 { return gaugeValue(reg, "serve_queue_depth") },
		float64(n), "serve_queue_depth while loop held")
}

// loopHold parks a server's batch loop at the head of its first batch
// and records the size of every batch the loop runs.
type loopHold struct {
	held    chan struct{} // closed once the loop is parked
	release chan struct{} // close to let the loop go
	mu      sync.Mutex
	sizes   []int
}

func holdLoop(s *serve.Server) *loopHold {
	h := &loopHold{held: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	s.SetBeforeBatch(func(size int) {
		h.mu.Lock()
		h.sizes = append(h.sizes, size)
		h.mu.Unlock()
		once.Do(func() {
			close(h.held)
			<-h.release
		})
	})
	return h
}

// assertSizes checks the batches run so far had exactly the given sizes.
func (h *loopHold) assertSizes(t *testing.T, want ...int) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", h.sizes, want)
	}
	for i := range want {
		if h.sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", h.sizes, want)
		}
	}
}

// TestServeLoadShed is the admission-control contract, run under -race
// by `make race`: with the batch loop held still, the queue admits
// exactly QueueDepth texts, every request beyond that is shed with
// ErrOverloaded and counted in serve_shed_total, the queue-depth gauge
// never exceeds the bound, and all admitted requests are answered once
// the loop resumes.
func TestServeLoadShed(t *testing.T) {
	const depth = 4
	s, reg, d := newServer(t, serve.Options{MaxBatch: 1, QueueDepth: depth})
	h := holdLoop(s)

	var wg sync.WaitGroup
	errs := make(chan error, depth+1)
	label := func() {
		defer wg.Done()
		_, err := s.Label(context.Background(), []string{d.Valid[0].Text}, false)
		errs <- err
	}

	// First request seeds a batch and parks the loop inside the hook.
	wg.Add(1)
	go label()
	<-h.held

	// Fill the queue to exactly its bound.
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go label()
	}
	waitQueued(t, reg, depth)

	// Admission control: one more single and one batch both shed
	// immediately instead of queueing or blocking.
	if _, err := s.Label(context.Background(), []string{"overflow"}, false); err != serve.ErrOverloaded {
		t.Fatalf("single over bound: err = %v, want ErrOverloaded", err)
	}
	if _, err := s.Label(context.Background(), []string{"a", "b", "c"}, false); err != serve.ErrOverloaded {
		t.Fatalf("batch over bound: err = %v, want ErrOverloaded", err)
	}
	if got := gaugeValue(reg, "serve_queue_depth"); got > depth {
		t.Fatalf("queue depth %v exceeded bound %d", got, depth)
	}
	if got := reg.CounterValue("serve_shed_total"); got != 2 {
		t.Fatalf("serve_shed_total = %v, want 2", got)
	}

	// Resume: every admitted request must be answered.
	close(h.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	if got := gaugeValue(reg, "serve_queue_depth"); got != 0 {
		t.Errorf("queue depth %v after drain", got)
	}
	if got := reg.CounterValue("serve_dropped_total"); got != 0 {
		t.Errorf("serve_dropped_total = %v, want 0", got)
	}

	// A request wider than the whole queue is admitted against an idle
	// queue — oversized offline-style batches still make progress.
	texts := make([]string, depth+2)
	for i := range texts {
		texts[i] = d.Valid[i%len(d.Valid)].Text
	}
	if _, err := s.Label(context.Background(), texts, false); err != nil {
		t.Fatalf("oversized request against idle queue: %v", err)
	}
}

// TestServeCancelledDropped: a client that disconnects before its batch
// runs does not consume batch capacity — its queued text is dropped
// (serve_dropped_total), while a live request sharing the batch is
// answered with the exact offline prediction.
func TestServeCancelledDropped(t *testing.T) {
	s, reg, d := newServer(t, serve.Options{})
	b, _ := trained(t)
	texts, probas, labels := offlineExpected(b, d)
	h := holdLoop(s)

	first := labelAsync(t, s, texts[2:3])
	<-h.held

	// Queued behind the held loop: the cancelled request returns at once,
	// leaving its text in the queue.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Label(ctx, texts[:1], false); err == nil {
		t.Fatal("cancelled request returned no error")
	}
	live := labelAsync(t, s, texts[1:2])
	waitQueued(t, reg, 2)

	close(h.release)
	first()
	assertPrediction(t, live()[0], probas[1], labels[1], texts[1])
	h.assertSizes(t, 1, 2)
	if got := reg.CounterValue("serve_dropped_total"); got != 1 {
		t.Errorf("serve_dropped_total = %v, want 1", got)
	}
	if got := reg.CounterValue("serve_shed_total"); got != 0 {
		t.Errorf("serve_shed_total = %v, want 0", got)
	}
}
