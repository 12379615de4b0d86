package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzMetricFamilies feeds arbitrary label values (NUL-separated, so a
// value may hold quotes, backslashes, newlines, the key separator or
// invalid UTF-8) to a two-label counter vector capped at 4 series and a
// one-label histogram vector. The Prometheus exposition must pass
// LintPrometheus, the JSON export must parse, the counter vector never
// holds more than its cap plus the overflow series, and CounterValue
// equals the number of increments.
func FuzzMetricFamilies(f *testing.F) {
	const maxSeries = 4
	f.Add([]byte("acme\x00beta\x00acme"))
	f.Add([]byte("we\"ird\\te\nnant\x00\x00_overflow\x00a\x1fb\x00a"))
	f.Add([]byte("t1\x00t2\x00t3\x00t4\x00t5\x00t6\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		values := strings.Split(string(data), "\x00")
		if len(values) > 64 {
			values = values[:64]
		}
		r := NewRegistry()
		cv := r.CounterVec("fuzz_requests_total", "requests", "tenant", "code")
		cv.SetMaxSeries(maxSeries)
		hv := r.HistogramVec("fuzz_request_seconds", "latency", []float64{0.01, 1}, "tenant")
		for i, a := range values {
			cv.With(a, values[(i+1)%len(values)]).Inc()
			hv.With(a).Observe(float64(len(a)) / 8)
		}

		var prom bytes.Buffer
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if problems := LintPrometheus(bytes.NewReader(prom.Bytes())); len(problems) != 0 {
			t.Fatalf("exposition fails lint: %v\n%s", problems, prom.Bytes())
		}
		var js bytes.Buffer
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(js.Bytes()) {
			t.Fatalf("WriteJSON output is not valid JSON:\n%s", js.Bytes())
		}
		if n := len(r.Snapshot()["fuzz_requests_total"].(map[string]any)); n > maxSeries+1 {
			t.Fatalf("%d series, want at most %d (+1 overflow)", n, maxSeries)
		}
		if got := r.CounterValue("fuzz_requests_total"); got != float64(len(values)) {
			t.Fatalf("CounterValue = %v, want %d increments", got, len(values))
		}
	})
}
