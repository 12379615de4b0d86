package main

import (
	"context"
	"net/http"
	"sort"
	"time"

	"datasculpt/internal/llm"
	"datasculpt/internal/obs"
)

// spanSums aggregates one traced pass's spans by name.
type spanSums struct {
	total map[string]time.Duration // summed durations
	self  map[string]time.Duration // summed durations minus nested spans
	count map[string]int
	// queueWait is serve.label time not covered by the batch that
	// finished the request; labelBatch is the covered part.
	queueWait, labelBatch time.Duration
}

func dur(s obs.SpanData) time.Duration { return s.End.Sub(s.Start) }

// measuredRoots name the spans a trace must contain to count: a set-up,
// a measured operation, a measured request, or a coalescer batch.
// Server spans of warm-up requests, which have no client span, drop out.
var measuredRoots = map[string]bool{"setup": true, "bench.op": true, "client.request": true, "serve.batch": true}

// analyze computes self times by containment within each trace, not by
// recorded parent: the benchmark's llm.chat spans sit inside the
// program's prompt and growth.step spans, which they cannot name as
// parent. Spans of one trace run on one goroutine here, so nesting in
// time is nesting in the call tree.
func analyze(all []obs.SpanData) spanSums {
	a := spanSums{
		total: make(map[string]time.Duration),
		self:  make(map[string]time.Duration),
		count: make(map[string]int),
	}
	measured := make(map[string]bool)
	for _, s := range all {
		if measuredRoots[s.Name] {
			measured[s.Trace] = true
		}
	}
	var spans []obs.SpanData
	for _, s := range all {
		if measured[s.Trace] {
			spans = append(spans, s)
		}
	}
	byTrace := make(map[string][]int)
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
		a.total[s.Name] += dur(s)
		a.self[s.Name] += dur(s)
		a.count[s.Name]++
	}
	for _, idx := range byTrace {
		sort.Slice(idx, func(x, y int) bool {
			sx, sy := spans[idx[x]], spans[idx[y]]
			if !sx.Start.Equal(sy.Start) {
				return sx.Start.Before(sy.Start)
			}
			return sx.End.After(sy.End)
		})
		var stack []obs.SpanData
		for _, i := range idx {
			s := spans[i]
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if !s.Start.Before(top.Start) && !s.End.After(top.End) {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				a.self[stack[len(stack)-1].Name] -= dur(s)
			}
			stack = append(stack, s)
		}
	}

	var labels, batches []obs.SpanData
	for _, s := range spans {
		switch s.Name {
		case "serve.label":
			labels = append(labels, s)
		case "serve.batch":
			batches = append(batches, s)
		}
	}
	for i, j := range matchBatches(labels, batches) {
		var b time.Duration
		if j >= 0 {
			b = dur(batches[j])
		}
		a.labelBatch += b
		a.queueWait += dur(labels[i]) - b
	}
	return a
}

// selfTable lists span names by self time, for the printed report.
func (a spanSums) selfTable() []string {
	names := make([]string, 0, len(a.self))
	for n := range a.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return a.self[names[i]] > a.self[names[j]] })
	return names
}

// matchBatches returns, for each serve.label span, the index of the
// serve.batch span that finished it, or -1. Batches run on a separate
// goroutine per tenant and carry no request identity, so the match is by
// time: the batch started inside the label span (a batch span opens
// after its items are queued) whose end is nearest the label's end (the
// label returns as soon as that batch fills its last slot). Choosing the
// last batch to end before the label would miss whenever the label
// returns before the batch span closes, and a concurrent tenant's batch
// ends at an unrelated time.
func matchBatches(labels, batches []obs.SpanData) []int {
	order := make([]int, len(batches))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return batches[order[x]].Start.Before(batches[order[y]].Start) })
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = -1
		k := sort.Search(len(order), func(k int) bool { return !batches[order[k]].Start.Before(l.Start) })
		var best time.Duration
		for ; k < len(order) && !batches[order[k]].Start.After(l.End); k++ {
			gap := batches[order[k]].End.Sub(l.End)
			if gap < 0 {
				gap = -gap
			}
			if out[i] < 0 || gap < best {
				out[i], best = order[k], gap
			}
		}
	}
	return out
}

// attrSum totals an integer attribute over the spans with a name.
func attrSum(spans []obs.SpanData, name, key string) int64 {
	var t int64
	for i := range spans {
		if spans[i].Name == name {
			v, _ := spans[i].Int(key)
			t += v
		}
	}
	return t
}

// chatSpans wraps an LLM endpoint so that each call made under a
// benchmark span records an llm.chat span with the tokens it billed.
func chatSpans(m llm.ChatModel) llm.ChatModel { return chatProbe{m} }

type chatProbe struct{ llm.ChatModel }

func (c chatProbe) Chat(ctx context.Context, msgs []llm.Message, temperature float64, n int) ([]llm.Response, error) {
	parent := obs.SpanFromContext(ctx)
	if parent == nil {
		return c.ChatModel.Chat(ctx, msgs, temperature, n)
	}
	span := parent.Child("llm.chat")
	resp, err := c.ChatModel.Chat(ctx, msgs, temperature, n)
	tokens := 0
	for _, r := range resp {
		tokens += r.Usage.Total()
	}
	span.SetInt("tokens", int64(tokens))
	span.SetErr(err)
	span.End()
	return resp, err
}

// tracedHandler times the gateway from outside: a bench.handler span
// around the whole handler, joined to the client's trace through the
// traceparent header the gateway also adopts.
func tracedHandler(next http.Handler, t obs.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID, _, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		span := obs.StartTrace(t, traceID, "bench.handler")
		next.ServeHTTP(w, r)
		span.End()
	})
}
