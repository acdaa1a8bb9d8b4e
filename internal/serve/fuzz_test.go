package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"xpe"
	"xpe/internal/faultinject"
)

// fuzzBodyCap bounds the body FuzzServeFeed posts.
const fuzzBodyCap = 64 << 10

// fuzzQueries are the feed's three registered queries: a sibling query
// and a child query over faultinject's <rec> records, and one that
// matches a price element directly under any record root.
var fuzzQueries = []struct{ tenant, name, src string }{
	{"t1", "pairs", "[* ; a ; b .] rec"},
	{"t1", "ids", "id rec"},
	{"t2", "prices", "price doc* *"},
}

// FuzzServeFeed is the served differential on arbitrary bodies: each input
// (capped at 64 KB) is posted over HTTP to /v1/feed/{feed}?split=rec with
// three registered queries, and the response must be byte for byte the
// NDJSON the library's SelectStreamMulti run (OnError: Skip) renders to —
// the same match lines, then the same summary or the same error line. Each
// input gets a fresh server with breakers disabled: a trip is serving
// policy the library has no counterpart for, and a fuzzed body can fail
// eight records in a row. After the server closes, the goroutine count
// must return to its baseline.
func FuzzServeFeed(f *testing.F) {
	for _, spec := range []faultinject.FeedSpec{
		{Records: 40, Malformed: map[int]bool{3: true, 17: true, 32: true}},
		{Records: 12, Truncated: true},
		{Records: 3000},
	} {
		body, err := io.ReadAll(io.LimitReader(spec.Reader(), fuzzBodyCap))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(feedCorpus))
	f.Add([]byte{})
	f.Add([]byte("\x00<<rec></b>&amp;<![CDATA[ ]]"))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > fuzzBodyCap {
			body = body[:fuzzBodyCap]
		}
		base := runtime.NumGoroutine()
		eng := xpe.NewEngine()
		s, err := NewServer(Options{Engine: eng, BreakerThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		client := ts.Client()
		post := func(path, ctype string, body io.Reader) (int, string) {
			resp, err := client.Post(ts.URL+path, ctype, body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(b)
		}
		qs := make([]*xpe.Query, len(fuzzQueries))
		for i, r := range fuzzQueries {
			reg := fmt.Sprintf(`{"tenant":%q,"name":%q,"query":%q,"feed":"fuzz"}`, r.tenant, r.name, r.src)
			if code, msg := post("/v1/queries", "application/json", strings.NewReader(reg)); code != http.StatusCreated {
				t.Fatalf("register %s: %d %s", reg, code, msg)
			}
			if qs[i], err = eng.CompileQuery(r.src); err != nil {
				t.Fatal(err)
			}
		}
		code, got := post("/v1/feed/fuzz?split=rec", "application/xml", bytes.NewReader(body))
		if code != http.StatusOK {
			t.Fatalf("feed post: %d %s", code, got)
		}

		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		st, err := eng.SelectStreamMulti(context.Background(), bytes.NewReader(body), qs,
			xpe.SelectOptions{Workers: 1, SplitElement: "rec", OnError: xpe.Skip},
			func(m xpe.MultiStreamMatch) error {
				r := fuzzQueries[m.Query]
				return enc.Encode(matchLine{Tenant: r.tenant, Query: r.name, Record: m.Record,
					RecordPath: m.RecordPath, Path: m.Path, Term: m.Term})
			})
		if err != nil {
			enc.Encode(map[string]string{"error": err.Error()})
		} else {
			enc.Encode(struct {
				Summary summaryLine `json:"summary"`
			}{summaryLine{Records: st.Records, Matches: st.Matches, Prefiltered: st.Prefiltered,
				Skipped: st.Skipped, TimedOut: st.TimedOut, Recovered: st.Recovered, Bytes: st.Bytes,
				Queries: len(qs)}})
		}
		if got != want.String() {
			t.Errorf("served response != SelectStreamMulti:\n%s\n---\n%s", got, want.String())
		}
		drainLeaks(t, base, ts.Close)
	})
}
