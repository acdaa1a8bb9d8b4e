package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"xpe"
	"xpe/internal/serve"
)

// registration is one POST /v1/queries payload.
type registration struct {
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Query  string `json:"query"`
	Feed   string `json:"feed"`
}

// matchLine is one NDJSON match line of a feed post, as the server writes
// it.
type matchLine struct {
	Tenant     string `json:"tenant"`
	Query      string `json:"query"`
	Record     int    `json:"record"`
	RecordPath string `json:"recordPath"`
	Path       string `json:"path"`
	Term       string `json:"term"`
}

// summaryLine is the trailing {"summary": ...} line of a feed post.
type summaryLine struct {
	Records     int64 `json:"records"`
	Matches     int64 `json:"matches"`
	Prefiltered int64 `json:"prefiltered"`
	Skipped     int64 `json:"skipped"`
	TimedOut    int64 `json:"timedOut"`
	Recovered   int64 `json:"recovered"`
	Bytes       int64 `json:"bytes"`
	Queries     int   `json:"queries"`
}

// workload is one benchmark workload: the fleet registered at set-up, the
// body every op posts, and the reference answer to that post.
type workload struct {
	name  string
	feed  string         // the feed every op posts to
	split string         // the record element
	fleet []registration // registered at set-up, in order
	body  []byte
	// records is the number of records the splitter finds in body.
	records int
	// expected is the reference answer to one post of body, built without
	// the shared pass or the union skim.
	expected []matchLine
	// churn: each op first registers a query naming a never-seen label on
	// a side feed, and a run is a sequence of episodes of episodeOps ops,
	// each from a fresh server.
	churn      bool
	episodeOps int
	prefix     string // churn: the seeded prefix of the fresh labels
}

const (
	selectiveName = "feed-selective-8q"
	denseName     = "feed-dense-64q"
	churnName     = "feed-vocab-churn"
)

var workloadNames = []string{selectiveName, denseName, churnName}

// newWorkload builds a workload's inputs and reference answer from the
// seed.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case selectiveName:
		w := topicWorkload(rng, 1024, 24)
		w.name = name
		return w, nil
	case churnName:
		w := topicWorkload(rng, 64, 5)
		w.name = name
		w.churn = true
		w.episodeOps = 512
		w.prefix = labelPrefix(rng)
		return w, nil
	case denseName:
		w := &workload{name: name, feed: "dense", split: "doc", records: 2}
		w.body = docbookFeed(rng, w.records, 1500)
		for i, src := range denseQueries() {
			w.fleet = append(w.fleet, registration{Tenant: fmt.Sprintf("team%d", i/8),
				Name: fmt.Sprintf("q%02d", i), Query: src, Feed: w.feed})
		}
		exp, err := oracleAnswer(w)
		if err != nil {
			return nil, err
		}
		w.expected = exp
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// topicWorkload is the 8-topic feed shared by the selective and churn
// workloads: tenant K registers "figure topicK doc*". Its reference answer
// comes from the generator: each topical record yields exactly one match,
// for its topic's query.
func topicWorkload(rng *rand.Rand, records, paras int) *workload {
	const topics = 8
	w := &workload{feed: "news", split: "doc", records: records}
	for k := 0; k < topics; k++ {
		w.fleet = append(w.fleet, registration{Tenant: fmt.Sprintf("tenant%d", k),
			Name: fmt.Sprintf("topic%d", k), Query: fmt.Sprintf("figure topic%d doc*", k), Feed: w.feed})
	}
	body, hits := topicFeed(rng, records, paras, topics)
	w.body = body
	for _, h := range hits {
		r := w.fleet[h.topic]
		w.expected = append(w.expected, matchLine{Tenant: r.Tenant, Query: r.Name, Record: h.record,
			RecordPath: fmt.Sprintf("1.%d", h.record+1), Path: h.path, Term: "figure"})
	}
	return w
}

// oracleAnswer is the unfiltered oracle of the differential harness: every
// fleet query alone through Engine.SelectStream with the prefilter off, on
// an Engine of its own that has compiled the whole fleet first (so its
// alphabet is the served one). Lines are grouped per record in fleet
// order, as a feed post groups them.
func oracleAnswer(w *workload) ([]matchLine, error) {
	eng := xpe.NewEngine()
	qs := make([]*xpe.Query, len(w.fleet))
	for i, r := range w.fleet {
		q, err := eng.CompileQuery(r.Query)
		if err != nil {
			return nil, fmt.Errorf("oracle: compile %q: %w", r.Query, err)
		}
		qs[i] = q
	}
	perRecord := make([][]matchLine, w.records)
	for i, q := range qs {
		r := w.fleet[i]
		opts := xpe.SelectOptions{Workers: 1, SplitElement: w.split, Prefilter: xpe.PrefilterOff}
		_, err := eng.SelectStream(context.Background(), bytes.NewReader(w.body), q, opts,
			func(m xpe.StreamMatch) error {
				perRecord[m.Record] = append(perRecord[m.Record], matchLine{Tenant: r.Tenant, Query: r.Name,
					Record: m.Record, RecordPath: m.RecordPath, Path: m.Path, Term: m.Term})
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", r.Query, err)
		}
	}
	var out []matchLine
	for _, lines := range perRecord {
		out = append(out, lines...)
	}
	return out, nil
}

// recorder is a reusable in-memory http.ResponseWriter, so the client
// allocates nothing per op that the server's own figures would absorb.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) Flush()              {}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// instance is one server under test and the client that drives it: a
// single closed-loop caller of ServeHTTP, with no listener in between.
type instance struct {
	eng *xpe.Engine
	srv *serve.Server
	rec recorder
}

// start builds a fresh Engine and server with the serve.Options defaults
// except Workers: 1.
func start() (*instance, error) {
	eng := xpe.NewEngine()
	srv, err := serve.NewServer(serve.Options{Engine: eng, Workers: 1})
	if err != nil {
		return nil, err
	}
	return &instance{eng: eng, srv: srv, rec: recorder{hdr: make(http.Header)}}, nil
}

// stop drains and closes the server.
func (in *instance) stop() error {
	in.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := in.srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return in.srv.Close()
}

// do sends one request through ServeHTTP and leaves the response in in.rec.
func (in *instance) do(method, target string, body []byte) error {
	req, err := http.NewRequestWithContext(context.Background(), method, target, bytes.NewReader(body))
	if err != nil {
		return err
	}
	in.rec.reset()
	in.srv.ServeHTTP(&in.rec, req)
	return nil
}

// register posts one registration and checks for 201.
func (in *instance) register(r registration) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := in.do(http.MethodPost, "/v1/queries", payload); err != nil {
		return err
	}
	if in.rec.status != http.StatusCreated {
		return fmt.Errorf("register %s/%s: status %d: %s", r.Tenant, r.Name, in.rec.status,
			bytes.TrimSpace(in.rec.body.Bytes()))
	}
	return nil
}

// post sends one feed post of the workload's body; the answer is left in
// in.rec for the caller to check.
func (in *instance) post(w *workload) error {
	return in.do(http.MethodPost, "/v1/feed/"+w.feed+"?split="+w.split, w.body)
}

// setUp builds a fresh server, registers the fleet and answers the first
// post: the span setup_s times. The first post fills the lazily built
// state, so it belongs to set-up. timed, when not nil, is called after
// each registration with the time it started.
func setUp(w *workload, timed func(start time.Time)) (*instance, error) {
	in, err := start()
	if err != nil {
		return nil, err
	}
	for _, r := range w.fleet {
		t0 := time.Now()
		err := in.register(r)
		if timed != nil {
			timed(t0)
		}
		if err != nil {
			in.stop()
			return nil, err
		}
	}
	if err := in.post(w); err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// churnRegistration is the i-th churn op's registration: a query naming a
// never-seen label, on a side feed that is never posted to. Tenants rotate
// every 128 ops to stay under the per-tenant registration cap.
func churnRegistration(w *workload, i int) registration {
	label := freshLabel(w.prefix, i)
	return registration{Tenant: fmt.Sprintf("scribe%d", i/128), Name: "q" + label,
		Query: "figure " + label + " doc*", Feed: "side"}
}

// verify checks a feed post's answer line by line against the reference
// and checks its summary. It returns the answer's digest, against which
// every later post of the same body is compared.
func verify(w *workload, status int, body []byte) ([sha256.Size]byte, error) {
	digest := sha256.Sum256(body)
	if status != http.StatusOK {
		return digest, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(w.expected)+1 {
		return digest, fmt.Errorf("%d lines, want %d matches and a summary", len(lines), len(w.expected))
	}
	for i, want := range w.expected {
		var got matchLine
		dec := json.NewDecoder(bytes.NewReader(lines[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			return digest, fmt.Errorf("line %d: %v: %s", i+1, err, lines[i])
		}
		if got != want {
			return digest, fmt.Errorf("line %d: got %+v, want %+v", i+1, got, want)
		}
	}
	var sum struct {
		Summary *summaryLine `json:"summary"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || sum.Summary == nil {
		return digest, fmt.Errorf("missing summary line: %s", lines[len(lines)-1])
	}
	s := *sum.Summary
	switch {
	case s.Records+s.Prefiltered != int64(w.records):
		return digest, fmt.Errorf("summary: records %d + prefiltered %d != %d records split", s.Records, s.Prefiltered, w.records)
	case s.Matches != int64(len(w.expected)):
		return digest, fmt.Errorf("summary: %d matches, want %d", s.Matches, len(w.expected))
	case s.Queries != len(w.fleet):
		return digest, fmt.Errorf("summary: %d queries, want %d", s.Queries, len(w.fleet))
	case s.Skipped != 0 || s.TimedOut != 0 || s.Recovered != 0:
		return digest, fmt.Errorf("summary: failed records: %+v", s)
	case s.Bytes != int64(len(w.body)):
		return digest, fmt.Errorf("summary: %d bytes read, want %d", s.Bytes, len(w.body))
	}
	return digest, nil
}
