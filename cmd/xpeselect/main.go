// Command xpeselect runs a selection query against an XML document and
// prints the located nodes.
//
// Usage:
//
//	xpeselect -query 'fig sec* [* ; doc ; *]' [-format paths|term|xml] [file.xml]
//	xpeselect -query 'a b*' -stream [-split entry] [-workers N] [-on-error abort|skip] [file.xml]
//
// With no file argument the document is read from standard input. Query
// syntax is documented on xpe.Engine.CompileQuery.
//
// With -stream the document is never held in memory: it is split into
// records (children of the document element, or subtrees rooted at the
// -split element) and each record is evaluated independently, so paths
// are record-relative and envelope conditions range over the record
// subtree only. The query is resolved against the alphabet once, when
// the stream starts, so '.' in a streamed query ranges over the labels
// interned at that point (its own labels, on a fresh engine) — labels
// first seen mid-stream stay outside its closed world for the run. A
// query without '.' does not depend on the alphabet and is never
// recompiled.
//
// -on-error picks the failed-record policy for -stream: abort (default)
// stops at the first bad record, skip drops it and continues (requires
// -split past broken markup; the summary then reports skipped/recovered
// counts). -max-record-bytes, -max-stream-bytes, and -record-timeout bound
// the resources one record / the whole run may consume. Stream-only flags
// given without -stream are an error (exit 2), not a silent no-op; -lazy,
// -explain, -metrics, and -debug-addr apply to both paths.
//
// By default -stream skims each record's raw bytes for the query's
// required element labels and skips records that cannot match without
// parsing them (the summary reports the skip rate); -no-prefilter
// disables the cascade. -lazy compiles the query with on-demand subset
// construction, bounding compile time on queries whose eager
// determinization would blow up; the summary reports the lazy-DHA cache
// activity.
//
// Observability: -explain prints each match's provenance (which envelope
// base matched which ancestor), -slow-record logs -stream records slower
// than the given duration, and -debug-addr serves the live debug surface
// — engine stats, cache state, recent record traces, pprof — for the
// run's duration:
//
//	xpeselect -query 'a b*' -stream -debug-addr localhost:6060 big.xml
//	curl http://localhost:6060/debug/xpe/traces
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"xpe"
	"xpe/debug"
	"xpe/internal/hedge"
	"xpe/internal/xmlhedge"
)

// cliFlags holds every parsed flag; defineFlags registers them on a
// FlagSet so validation is testable against synthetic command lines.
type cliFlags struct {
	query, xpathQ, format, split, onError, debugAddr *string
	term, streaming, noPrefilter, lazy               *bool
	showMetrics, explain                             *bool
	workers, maxNodes                                *int
	maxRecBytes, maxStreamBytes                      *int64
	recTimeout, slowRec                              *time.Duration
}

func defineFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		query:          fs.String("query", "", "selection query"),
		xpathQ:         fs.String("xpath", "", "XPath location path (translated to a selection query)"),
		format:         fs.String("format", "paths", "output format: paths, term, or xml"),
		term:           fs.Bool("term", false, "input is in term syntax rather than XML"),
		streaming:      fs.Bool("stream", false, "evaluate record by record in bounded memory"),
		split:          fs.String("split", "", "record root element for -stream (default: children of the document element)"),
		workers:        fs.Int("workers", 0, "concurrent record workers for -stream (0 = GOMAXPROCS)"),
		maxNodes:       fs.Int("max-record-nodes", 0, "fail a -stream record over this node count (0 = unlimited)"),
		maxRecBytes:    fs.Int64("max-record-bytes", 0, "fail a -stream record spanning more input bytes (0 = unlimited)"),
		maxStreamBytes: fs.Int64("max-stream-bytes", 0, "abort -stream past this total input size (0 = unlimited)"),
		recTimeout:     fs.Duration("record-timeout", 0, "fail a -stream record evaluating longer than this (0 = unlimited)"),
		onError:        fs.String("on-error", "abort", "failed-record policy for -stream: abort or skip"),
		noPrefilter:    fs.Bool("no-prefilter", false, "disable the -stream raw-byte record prefilter (results are identical; only throughput differs)"),
		lazy:           fs.Bool("lazy", false, "compile with lazy determinization (on-demand subset construction; bounds compile cost on adversarial queries; applies to -stream and in-memory runs alike)"),
		showMetrics:    fs.Bool("metrics", false, "print engine metrics as JSON on stderr after the run"),
		explain:        fs.Bool("explain", false, "print each match's provenance (why the query matched)"),
		slowRec:        fs.Duration("slow-record", 0, "log -stream records slower than this duration (0 = off)"),
		debugAddr:      fs.String("debug-addr", "", "serve the live debug surface (stats, cache, traces, pprof) on this address during the run"),
	}
}

// streamOnly names the flags that configure the record-splitting pipeline:
// setting one without -stream used to be silently ignored, which reads as
// "my limit/policy is in force" when nothing of the sort is running.
// validateFlags rejects that loudly instead. (-lazy, -explain, -metrics,
// and -debug-addr are NOT in this set: they apply to both paths.)
var streamOnly = map[string]bool{
	"split": true, "workers": true, "on-error": true, "no-prefilter": true,
	"max-record-nodes": true, "max-record-bytes": true, "max-stream-bytes": true,
	"record-timeout": true, "slow-record": true,
}

// validateFlags checks cross-flag consistency after parsing, returning a
// diagnostic message ("" when the combination is valid).
func validateFlags(fs *flag.FlagSet, f *cliFlags) string {
	if (*f.query == "") == (*f.xpathQ == "") {
		return "exactly one of -query or -xpath is required"
	}
	if *f.streaming && *f.term {
		return "-stream reads XML, not -term input"
	}
	if !*f.streaming {
		var misplaced []string
		fs.Visit(func(fl *flag.Flag) {
			if streamOnly[fl.Name] {
				misplaced = append(misplaced, "-"+fl.Name)
			}
		})
		if len(misplaced) > 0 {
			return fmt.Sprintf("%s require(s) -stream (the in-memory path has no record pipeline)",
				strings.Join(misplaced, ", "))
		}
	}
	return ""
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	if msg := validateFlags(flag.CommandLine, f); msg != "" {
		fmt.Fprintln(os.Stderr, "xpeselect: "+msg)
		flag.Usage()
		os.Exit(2)
	}
	query, xpathQ, format := f.query, f.xpathQ, f.format
	term, streaming, split := f.term, f.streaming, f.split
	workers, maxNodes, maxRecBytes := f.workers, f.maxNodes, f.maxRecBytes
	maxStreamBytes, recTimeout, onError := f.maxStreamBytes, f.recTimeout, f.onError
	noPrefilter, lazy, showMetrics := f.noPrefilter, f.lazy, f.showMetrics
	explain, slowRec, debugAddr := f.explain, f.slowRec, f.debugAddr

	var input io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		input = f
	}

	var engOpts []xpe.EngineOption
	if *lazy {
		engOpts = append(engOpts, xpe.WithLazyDeterminization())
	}
	eng := xpe.NewEngine(engOpts...)

	if *debugAddr != "" {
		// The engine-wide recorder gives /debug/xpe/traces content for
		// both the streaming and in-memory paths.
		eng.SetFlightRecorder(xpe.NewFlightRecorder(256))
		srv, err := debug.NewServer(*debugAddr, debug.Options{Engine: eng})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "xpeselect: debug surface at http://%s/debug/xpe/\n", srv.Addr())
	}

	if *streaming {
		q := compileQuery(eng, *query, *xpathQ)
		opts := xpe.SelectOptions{
			Workers:             *workers,
			SplitElement:        *split,
			MaxRecordNodes:      *maxNodes,
			MaxRecordBytes:      *maxRecBytes,
			MaxStreamBytes:      *maxStreamBytes,
			RecordTimeout:       *recTimeout,
			Explain:             *explain,
			SlowRecordThreshold: *slowRec,
		}
		if *noPrefilter {
			opts.Prefilter = xpe.PrefilterOff
		}
		switch *onError {
		case "abort":
			// nil keeps the historical abort surface (the raw typed cause).
		case "skip":
			opts.OnError = xpe.Skip
		default:
			fmt.Fprintf(os.Stderr, "xpeselect: -on-error must be abort or skip, not %q\n", *onError)
			os.Exit(2)
		}
		seq, stats := eng.SelectStreamSeq(context.Background(), input, q, opts)
		for m, err := range seq {
			if err != nil {
				fatal(err)
			}
			if perr := printMatch(m.Match, *format, m.RecordPath); perr != nil {
				fatal(perr)
			}
			if m.Explanation != nil {
				fmt.Print(m.Explanation.String())
			}
		}
		printSummary(eng, *stats, *showMetrics)
		return
	}

	var doc *xpe.Document
	var err error
	if *term {
		data, rerr := io.ReadAll(input)
		if rerr != nil {
			fatal(rerr)
		}
		doc, err = eng.ParseTerm(string(data))
	} else {
		doc, err = eng.ParseXML(input)
	}
	if err != nil {
		fatal(err)
	}

	q := compileQuery(eng, *query, *xpathQ)
	// The shared options surface drives both paths: the in-memory run
	// honors Explain (and Metrics/Trace) through Engine.Select, printing
	// matches and provenance exactly like the streaming loop above.
	matches, err := eng.Select(context.Background(), doc, q, xpe.SelectOptions{Explain: *explain})
	if err != nil {
		fatal(err)
	}
	for _, m := range matches {
		if err := printMatch(m, *format, ""); err != nil {
			fatal(err)
		}
		if m.Explanation != nil {
			fmt.Print(m.Explanation.String())
		}
	}
	fmt.Fprintf(os.Stderr, "xpeselect: %d node(s) located%s\n", len(matches), cacheSummary(eng))
	printMetrics(eng, *showMetrics)
}

// printSummary writes the streaming run summary — the same shape as the
// in-memory path's, extended with record/byte/fault accounting — followed
// by the metrics snapshot when enabled.
func printSummary(eng *xpe.Engine, stats xpe.StreamStats, showMetrics bool) {
	faults := ""
	if stats.Skipped > 0 || stats.Recovered > 0 {
		faults = fmt.Sprintf(", %d skipped, %d recovered", stats.Skipped, stats.Recovered)
	}
	if stats.TimedOut > 0 {
		faults += fmt.Sprintf(", %d timed out", stats.TimedOut)
	}
	fmt.Fprintf(os.Stderr, "xpeselect: %d node(s) located in %d record(s), %d bytes%s%s\n",
		stats.Matches, stats.Records, stats.Bytes, faults, cacheSummary(eng))
	if stats.Prefiltered > 0 {
		total := stats.Records + stats.Prefiltered
		fmt.Fprintf(os.Stderr, "xpeselect: prefilter skipped %d of %d record(s) (%.1f%%) without parsing\n",
			stats.Prefiltered, total, 100*float64(stats.Prefiltered)/float64(total))
	}
	if stats.LazyStates > 0 || stats.LazyHits > 0 {
		fmt.Fprintf(os.Stderr, "xpeselect: lazy determinization: %d state(s) built, %d cache hit(s), %d eviction(s)\n",
			stats.LazyStates, stats.LazyHits, stats.LazyEvictions)
	}
	printMetrics(eng, showMetrics)
}

// cacheSummary renders the compiled-query cache counters for the run
// summary; recompiles (misses past the first per query) mean the
// alphabet grew between compilation and evaluation of a '.'-bearing or
// XPath query.
func cacheSummary(eng *xpe.Engine) string {
	c := eng.Stats().Cache
	return fmt.Sprintf(" (query cache: %d hit(s), %d miss(es))", c.Hits, c.Misses)
}

// printMetrics writes the engine's cumulative metrics snapshot to stderr
// when -metrics is set.
func printMetrics(eng *xpe.Engine, enabled bool) {
	if !enabled {
		return
	}
	if err := xpe.WriteStats(os.Stderr, eng.Stats()); err != nil {
		fatal(err)
	}
}

// compileQuery compiles whichever of -query / -xpath was given. Compile
// order no longer affects what a query locates — a query without '.'
// does not depend on the alphabet, and the rest are generation-stamped
// and recompile transparently when the alphabet has grown — but the
// in-memory path still compiles after the document parse so a '.'-bearing
// or XPath query pays no first-use recompile.
func compileQuery(eng *xpe.Engine, query, xpathQ string) *xpe.Query {
	var q *xpe.Query
	var err error
	if xpathQ != "" {
		q, err = eng.CompileXPath(xpathQ)
	} else {
		q, err = eng.CompileQuery(query)
	}
	if err != nil {
		fatal(err)
	}
	return q
}

// printMatch renders one located node; recPath, when non-empty, prefixes
// the record-relative path with the record's position in the document.
func printMatch(m xpe.Match, format, recPath string) error {
	path := m.Path
	if recPath != "" {
		path = recPath + "/" + path
	}
	switch format {
	case "paths":
		fmt.Println(path)
	case "term":
		fmt.Printf("%s\t%s\n", path, m.Term)
	case "xml":
		s, err := xmlhedge.ToString(hedge.Hedge{m.Node})
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%s\n", path, s)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

// fatal prints err and exits, expanding the facade's typed errors into
// position-bearing diagnostics.
func fatal(err error) {
	var ce *xpe.CompileError
	var pe *xpe.ParseError
	var le *xpe.LimitError
	var re *xpe.RecordError
	var ie *xpe.InternalError
	switch {
	case errors.As(err, &re):
		fmt.Fprintf(os.Stderr, "xpeselect: record %d (at %s) failed: %v\n", re.Record, re.Path, re.Err)
		if errors.As(re.Err, &ie) {
			os.Stderr.Write(ie.Stack)
		}
	case errors.As(err, &ie):
		fmt.Fprintf(os.Stderr, "xpeselect: internal error on record %d (at %s): %v\n", ie.Record, ie.Path, ie.Value)
		os.Stderr.Write(ie.Stack)
	case errors.As(err, &ce):
		fmt.Fprintf(os.Stderr, "xpeselect: cannot compile query: %s\n", ce.Msg)
		if ce.Offset >= 0 {
			fmt.Fprintf(os.Stderr, "  at offset %d: %s\n", ce.Offset, ce.Excerpt)
		}
	case errors.As(err, &pe):
		fmt.Fprintf(os.Stderr, "xpeselect: malformed input: %s\n", pe.Msg)
		if pe.Line > 0 {
			fmt.Fprintf(os.Stderr, "  at line %d", pe.Line)
			if pe.Excerpt != "" {
				fmt.Fprintf(os.Stderr, ": %s", pe.Excerpt)
			}
			fmt.Fprintln(os.Stderr)
		}
	case errors.As(err, &le):
		fmt.Fprintf(os.Stderr, "xpeselect: record %d (at %s) exceeds the %s limit of %d\n",
			le.Record, le.Path, le.Kind, le.Limit)
	default:
		fmt.Fprintln(os.Stderr, "xpeselect:", err)
	}
	os.Exit(1)
}
