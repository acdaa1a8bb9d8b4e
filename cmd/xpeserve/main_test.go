package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"xpe"
)

// TestLazyEngineOption runs synthetic command lines through the real -lazy
// and -lazy-budget definitions: the chosen option is reported in the log
// line and must make the engine compile lazily exactly when -lazy is set.
func TestLazyEngineOption(t *testing.T) {
	cases := []struct {
		args []string
		desc string // substring of the log line; "" = no option
		err  string // substring of the diagnostic; "" = valid
	}{
		{nil, "", ""},
		// -lazy alone keeps the default bound, as xpeselect -lazy and
		// WithLazyDeterminization do.
		{[]string{"-lazy"}, "default transition budget", ""},
		// Only an explicit -lazy-budget replaces it; 0 there is unlimited.
		{[]string{"-lazy", "-lazy-budget", "0"}, "unlimited", ""},
		{[]string{"-lazy", "-lazy-budget", "500"}, "budget 500", ""},
		// -lazy-budget without -lazy is an error, even when set to 0.
		{[]string{"-lazy-budget", "500"}, "", "-lazy-budget requires -lazy"},
		{[]string{"-lazy-budget", "0"}, "", "-lazy-budget requires -lazy"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("xpeserve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		l := defineLazyFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("parse %v: %v", c.args, err)
		}
		opt, desc, err := l.engineOption()
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%v: error %v, want one mentioning %q", c.args, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: unexpected error %v", c.args, err)
			continue
		}
		if (opt == nil) != (c.desc == "") || !strings.Contains(desc, c.desc) {
			t.Errorf("%v: option %v with log line %q, want one mentioning %q", c.args, opt != nil, desc, c.desc)
		}
		var opts []xpe.EngineOption
		if opt != nil {
			opts = append(opts, opt)
		}
		q, err := xpe.NewEngine(opts...).CompileQuery("[. ; b ; .] a")
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got := q.Compiled().Lazy(); got != (opt != nil) {
			t.Errorf("%v: compiled lazily = %v, want %v", c.args, got, opt != nil)
		}
	}
}
