// Command jackpinevet is the project's multichecker: it runs the six
// registered invariant analyzers (ctxpropagate, errwrap, floatcmp,
// lockdiscipline, lockorder, syncerr; see internal/lint and DESIGN.md)
// over the packages matching the given patterns and exits non-zero on any
// unsuppressed diagnostic. An analyzer is kept only while no test
// catches a break of its invariant; DESIGN.md records the evidence.
//
// Usage:
//
//	go run ./cmd/jackpinevet ./...          # whole module (the CI gate)
//	go run ./cmd/jackpinevet -run floatcmp ./internal/geom
//	go run ./cmd/jackpinevet -json ./...    # machine-readable findings
//	go run ./cmd/jackpinevet -lockgraph ./... # dump the lock-order graph
//	go run ./cmd/jackpinevet -list
//
// Diagnostics are suppressed, one line at a time, with
//
//	//lint:allow <analyzer> <justification>
//
// or for a whole file with
//
//	//lint:allow-file <analyzer> <justification>
//
// where the justification is mandatory. A directive naming no registered
// analyzer is itself a finding, so a stale suppression cannot outlive the
// analyzer it silenced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"jackpine/internal/lint"
)

// jsonDiagnostic is the -json wire shape, one object per finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "only run analyzers whose name matches this regexp")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	lockgraph := flag.Bool("lockgraph", false, "print the module lock-order graph (one 'A -> B' edge per line) and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: jackpinevet [-list] [-run regexp] [-json] [-lockgraph] [packages]\n\n"+
				"Runs the jackpine invariant analyzers over the given package\n"+
				"patterns (default ./...) and exits 1 on any finding.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jackpinevet: bad -run pattern: %v\n", err)
			os.Exit(2)
		}
		var kept []*lint.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "jackpinevet: -run %q matches no analyzer (see -list)\n", *run)
			os.Exit(2)
		}
		analyzers = kept
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jackpinevet: %v\n", err)
		os.Exit(2)
	}

	if *lockgraph {
		for _, edge := range lint.LockGraph(pkgs) {
			fmt.Println(edge)
		}
		return
	}

	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jackpinevet: %v\n", err)
		os.Exit(2)
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "jackpinevet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "jackpinevet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
