package experiments

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func discardLogf(string, ...any) {}

// TestMeasureStreamSeedsSmoke measures every gated workload at two seeds
// in quick mode: the ten stream corpora and the in-memory select control,
// each with one positive run per seed and consistent stats.
func TestMeasureStreamSeedsSmoke(t *testing.T) {
	stats, err := MeasureStreamSeeds(true, []int64{1, 2}, nil, discardLogf)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"stream-20k-w1", "stream-20k-w4", "stream-20k-w8", "stream-20k-w16",
		"stream-degraded-clean", "stream-degraded-1pct",
		"stream-prefilter-off", "stream-prefilter-on",
		"stream-sharedpass-8q", "stream-sharedpass-independent",
		"select-20k"}
	if len(stats) != len(want) {
		t.Fatalf("got %d workloads, want %d", len(stats), len(want))
	}
	for i, st := range stats {
		if st.Name != want[i] {
			t.Errorf("workload %d = %q, want %q", i, st.Name, want[i])
		}
		if len(st.Runs) != 2 || st.Runs[0].Seed != 1 || st.Runs[1].Seed != 2 {
			t.Fatalf("%s: runs %+v, want one per seed", st.Name, st.Runs)
		}
		if st.Min <= 0 || st.Max < st.Min || st.Mean < st.Min || st.Mean > st.Max {
			t.Errorf("%s: inconsistent stats mean=%f min=%f max=%f", st.Name, st.Mean, st.Min, st.Max)
		}
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.ndjson")
	if got, err := LoadHistory(path); err != nil || got != nil {
		t.Fatalf("missing file: %v, %v; want empty, nil", got, err)
	}
	e1 := HistoryEntry{Date: "2026-08-01", GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64",
		Workloads: []SeedStat{{Name: "stream-100k-w1", Mean: 100, Min: 90, Max: 110,
			Runs: []SeedRun{{Seed: 42, NodesPerSec: 90}, {Seed: 123, NodesPerSec: 110}}}}}
	e2 := e1
	e2.Date = "2026-08-02"
	if err := AppendHistory(path, e1); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(path, e2); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Date != "2026-08-01" || got[1].Date != "2026-08-02" {
		t.Fatalf("round trip lost entries: %+v", got)
	}
	if len(got[0].Workloads) != 1 || got[0].Workloads[0].Runs[1].NodesPerSec != 110 {
		t.Fatalf("round trip lost workload detail: %+v", got[0].Workloads)
	}
}

// histEntry fabricates one comparable trajectory entry (GOMAXPROCS 2) with
// a single workload whose two seeds measured min and max.
func histEntry(date string, mean, min, max float64) HistoryEntry {
	return HistoryEntry{Date: date, GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2,
		Workloads: []SeedStat{{Name: "stream-100k-w4", Mean: mean, Min: min, Max: max,
			Runs: []SeedRun{{Seed: 42, NodesPerSec: min}, {Seed: 123, NodesPerSec: max}}}}}
}

func TestGateHistory(t *testing.T) {
	// An older epoch at half today's speed, then the current one: its two
	// entries pool to a mean of 1010 with a slowest run of 950.
	hist := []HistoryEntry{
		histEntry("2026-07-01", 500, 480, 520),
		histEntry("2026-07-02", 510, 490, 530),
		histEntry("2026-08-01", 1000, 950, 1050),
		histEntry("2026-08-02", 1020, 980, 1060),
	}
	cases := []struct {
		name string
		hist []HistoryEntry
		cur  HistoryEntry
		fail bool
	}{
		// All three legs: 30% below the epoch mean, below its slowest run,
		// every seed below the mean. Pooling the older epoch would have
		// put the mean at 757 and the slowest run at 480, and passed it.
		{"-30% with every seed agreeing, older epoch excluded", hist,
			histEntry("2026-08-03", 707, 700, 714), true},
		// Magnitude leg fails: a 20% drop is inside the 25% bound.
		{"-20% passes", hist, histEntry("2026-08-03", 808, 800, 816), false},
		// Drift inside the bound stays pooled: the older entry's slow run
		// (700) joins the epoch, and -26% stays above it. Judged against
		// the newest entry alone (mean 1100, slowest 1050) it would fail.
		{"drift stays pooled", []HistoryEntry{
			histEntry("2026-08-01", 1000, 700, 1300),
			histEntry("2026-08-02", 1100, 1050, 1150),
		}, histEntry("2026-08-03", 780, 770, 790), false},
		// A newest entry recorded in a fast spell, 40% above the two
		// before it, is an outlier, not an epoch: the centre stays at the
		// median (1020), so a normal-speed run passes. Anchored on the
		// newest entry alone it would read -29%, below every run.
		{"fast outlier entry left out", append(hist[2:4:4], histEntry("2026-08-03", 1420, 1400, 1440)),
			histEntry("2026-08-04", 1005, 960, 1050), false},
		// A newest entry recorded in a slow spell, 40% below the two before
		// it, does not lower the bar: -30% still fails.
		{"slow outlier entry left out", append(hist[2:4:4], histEntry("2026-08-03", 610, 600, 620)),
			histEntry("2026-08-04", 707, 700, 714), true},
		// A deliberate change recorded as the newest two of three entries
		// is the centre; the earlier epoch's entry is left out.
		{"new epoch after two entries", append(hist[3:4:4],
			histEntry("2026-08-03", 1800, 1750, 1850), histEntry("2026-08-04", 1780, 1740, 1820)),
			histEntry("2026-08-05", 1250, 1240, 1260), true},
		// Magnitude + effect size, but one seed beat the epoch mean: seeds
		// disagree, so it is noise.
		{"seeds disagree", hist, histEntry("2026-08-03", 700, 300, 1100), false},
		{"healthy", hist, histEntry("2026-08-03", 1005, 960, 1050), false},
		// An empty history passes wholesale.
		{"empty history", nil, histEntry("2026-08-03", 1, 1, 1), false},
	}
	for _, tc := range cases {
		failed := GateHistory(tc.hist, tc.cur, discardLogf)
		if tc.fail && len(failed) == 0 {
			t.Errorf("%s: gate passed, want failure", tc.name)
		}
		if !tc.fail && len(failed) > 0 {
			t.Errorf("%s: gate failed %v", tc.name, failed)
		}
	}

	// Entries from another host shape never pool: the same -30% run with
	// a different GOMAXPROCS or in quick mode has no history to fail.
	for _, mut := range []func(*HistoryEntry){
		func(e *HistoryEntry) { e.GOMAXPROCS = 4 },
		func(e *HistoryEntry) { e.Quick = true },
	} {
		cur := histEntry("2026-08-03", 707, 700, 714)
		mut(&cur)
		if failed := GateHistory(hist, cur, discardLogf); len(failed) > 0 {
			t.Errorf("incomparable entries must not gate: %v", failed)
		}
	}

	// A workload history has never seen passes.
	novel := HistoryEntry{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2,
		Workloads: []SeedStat{{Name: "stream-1k-w1", Mean: 1, Min: 1, Max: 1}}}
	if failed := GateHistory(hist, novel, discardLogf); len(failed) > 0 {
		t.Errorf("novel workload must not gate: %v", failed)
	}
}

// TestAssertHistoryRetry drives the second pass for real in quick mode: a
// first-pass figure far below its epoch is measured again, and the gate
// fails only when the fresh figures fail too.
func TestAssertHistoryRetry(t *testing.T) {
	const name = "stream-20k-w1"
	entry := func(mean float64) HistoryEntry {
		return HistoryEntry{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0),
			Quick: true, Workloads: []SeedStat{{Name: name, Mean: mean, Min: mean, Max: mean,
				Runs: []SeedRun{{Seed: 42, NodesPerSec: mean}, {Seed: 123, NodesPerSec: mean}}}}}
	}
	// A stalled first pass against an epoch any real run clears: the
	// second pass measures the workload again and passes.
	if err := AssertHistory([]HistoryEntry{entry(1000)}, entry(1), discardLogf); err != nil {
		t.Errorf("a first-pass failure the second pass clears must pass: %v", err)
	}
	// An epoch no real run reaches: both passes fail.
	err := AssertHistory([]HistoryEntry{entry(1e15)}, entry(1), discardLogf)
	if err == nil || !strings.Contains(err.Error(), name) {
		t.Errorf("a failure in both passes must fail naming %s, got %v", name, err)
	}
}
