package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestBenchJSONQuick runs the quick perf-regression workloads end to end
// and checks the report is complete and valid JSON — the same path `make
// bench-json` exercises in CI.
func TestBenchJSONQuick(t *testing.T) {
	rep, err := BenchJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"select-10k-nosink", "select-10k-sink",
		"select-10k-notrace", "select-10k-trace-disabled",
		"stream-20k-w1", "stream-20k-w4", "stream-20k-w8", "stream-20k-w16",
		"stream-degraded-clean", "stream-degraded-1pct",
		"stream-prefilter-off", "stream-prefilter-on",
		"stream-sharedpass-8q", "stream-sharedpass-independent",
		"compile-adversarial-k12-eager", "compile-adversarial-k12-lazy"}
	if len(rep.Results) != len(wantNames) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(wantNames))
	}
	for _, w := range []string{"4", "8", "16"} {
		if rep.ScalingEfficiency[w] <= 0 {
			t.Errorf("scaling_efficiency[%s] = %v, want > 0", w, rep.ScalingEfficiency[w])
		}
	}
	for i, r := range rep.Results {
		if r.Name != wantNames[i] {
			t.Errorf("result %d = %q, want %q", i, r.Name, wantNames[i])
		}
		if r.Iterations < 2 || r.NsPerOp <= 0 {
			t.Errorf("%s: iterations=%d ns/op=%.0f, want measured values", r.Name, r.Iterations, r.NsPerOp)
		}
		// The adversarial compile workloads measure build time, not
		// document throughput; they carry no node count.
		if r.NodesPerSec <= 0 && !strings.HasPrefix(r.Name, "compile-adversarial-") {
			t.Errorf("%s: nodes/sec = %.0f, want > 0", r.Name, r.NodesPerSec)
		}
	}
	if rep.PrefilterSpeedup <= 0 {
		t.Errorf("prefilter_speedup = %v, want > 0", rep.PrefilterSpeedup)
	}
	if rep.PrefilterSkipRate <= 0 || rep.PrefilterSkipRate >= 1 {
		t.Errorf("prefilter_skip_rate = %v, want in (0,1)", rep.PrefilterSkipRate)
	}
	if rep.SharedPassSpeedup <= 1 {
		t.Errorf("shared_pass_speedup = %v, want > 1", rep.SharedPassSpeedup)
	}
	if rep.LazyBlowupAvoided <= 1 {
		t.Errorf("lazy_blowup_avoided = %v, want > 1", rep.LazyBlowupAvoided)
	}
	if rep.PeakRSSBytes <= 0 {
		t.Errorf("peak RSS = %d, want > 0", rep.PeakRSSBytes)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round BenchReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report does not round-trip as JSON: %v", err)
	}
	if len(round.Results) != len(rep.Results) || round.GoVersion != rep.GoVersion {
		t.Errorf("round-trip drifted: %+v", round)
	}
}
