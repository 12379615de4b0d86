package obs

import (
	"context"
	"testing"
	"time"
)

// stageCount reads the stage_seconds count of one span name.
func stageCount(reg *Registry, stage string) uint64 {
	vec, _ := reg.Snapshot()["stage_seconds"].(map[string]any)
	h, _ := vec[`stage="`+stage+`"`].(HistogramSnapshot)
	return h.Count
}

// TestStageClockCountsDroppedTraces: with a head-sampling rate of 0 the
// sink receives no span, yet stage_seconds counts every one, because
// the clock runs before sampling decides.
func TestStageClockCountsDroppedTraces(t *testing.T) {
	mem, reg := NewMemoryTracer(), NewRegistry()
	o := New(NewSampledTracer(mem, SamplerOptions{Rate: 0}), reg, nil)
	for i := 0; i < 5; i++ {
		root := o.StartSpan(context.Background(), "request")
		child := root.Child("batch")
		child.End()
		root.End()
		if Elapsed(root) <= 0 || Elapsed(child) <= 0 {
			t.Fatalf("dropped spans measured %v and %v", Elapsed(root), Elapsed(child))
		}
	}
	if n := len(mem.Spans()); n != 0 {
		t.Fatalf("sink holds %d spans at rate 0, want none", n)
	}
	if got, want := stageCount(reg, "request"), uint64(5); got != want {
		t.Errorf("stage_seconds{request} count = %d, want %d", got, want)
	}
	if got, want := stageCount(reg, "batch"), uint64(5); got != want {
		t.Errorf("stage_seconds{batch} count = %d, want %d", got, want)
	}
}

// TestStageClockAllocs gates the clock's cost: a span of a bundle with a
// registry and the no-op tracer allocates at most once, and a span with
// no bundle not at all.
func TestStageClockAllocs(t *testing.T) {
	ctx := context.Background()
	spans := func(o *Obs) func() {
		return func() {
			it := o.StartSpan(ctx, "iteration")
			for _, stage := range [...]string{"select", "prompt", "parse", "filter"} {
				it.Child(stage).End()
			}
			it.End()
		}
	}
	if a := testing.AllocsPerRun(1000, spans(New(nil, NewRegistry(), nil))); a > 5 {
		t.Errorf("5 clocked spans allocate %.1f times, want at most 5", a)
	}
	if a := testing.AllocsPerRun(1000, spans(Default())); a != 0 {
		t.Errorf("5 spans with no bundle allocate %.1f times, want 0", a)
	}
}

// TestElapsedIsTheRecordedDuration: Elapsed is 0 while a span is open,
// then the one reading its first End took, which a recorded span
// carries as End-Start.
func TestElapsedIsTheRecordedDuration(t *testing.T) {
	mem := NewMemoryTracer()
	for _, o := range []*Obs{New(mem, NewRegistry(), nil), New(nil, NewRegistry(), nil)} {
		s := o.StartSpan(context.Background(), "stage")
		if Elapsed(s) != 0 {
			t.Fatal("open span reports a duration")
		}
		time.Sleep(time.Millisecond)
		s.End()
		d := Elapsed(s)
		s.End()
		if d < time.Millisecond || Elapsed(s) != d {
			t.Fatalf("Elapsed = %v then %v, want one reading of at least 1ms", d, Elapsed(s))
		}
		if rec := mem.Spans(); o.Tracer == mem && rec[0].End.Sub(rec[0].Start) != d {
			t.Errorf("recorded End-Start = %v, Elapsed = %v", rec[0].End.Sub(rec[0].Start), d)
		}
	}
	if Elapsed(Default().StartSpan(context.Background(), "untimed")) != 0 {
		t.Error("a span of a bundle without a registry reports a duration")
	}
}
