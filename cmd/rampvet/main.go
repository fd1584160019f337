// Command rampvet is RAMP's domain-specific static-analysis suite: it
// type-checks the module's packages with the standard library's go/ast,
// go/parser and go/types and applies the reliability-math analyzers in
// internal/lint:
//
//	floatcmp    ==/!= between floating-point expressions
//	unitsafety  sub-200 literals flowing into Kelvin-named slots
//	expguard    unguarded temperature denominators in math.Exp
//	seeddet     non-deterministic RNG construction outside tests
//	errdrop     statement-position calls silently dropping errors
//	obsguard    raw fmt.Fprint*(os.Stderr, ...) in internal packages
//	detmap      map iteration order reaching output or FP accumulation
//	ctxflow     ctx-bearing functions severing cancellation from long-running work
//	hotalloc    allocation sources inside //ramp:hot functions
//	goroleak    goroutines with no ctx/channel/WaitGroup escape route
//	unreached   functions under internal/ that no artifact reaches
//
// Four are flow-aware: detmap, ctxflow, hotalloc and goroleak consult
// the package call graph and the per-function loops built by
// internal/lint/flow. unreached loads the whole module from its root,
// whatever the package patterns, and walks its uses from every main
// package, the ramp.go facade and every init.
//
// Usage:
//
//	rampvet [flags] [packages]
//
// Packages default to ./... relative to the working directory, which
// must be inside the module. Every finding fails the run; a deliberate
// exception is a `//rampvet:ignore <analyzer> -- reason` comment on or
// above the line. -json emits machine-readable findings. rampvet exits
// 0 when there are no findings, 1 when there are, and 2 on usage or
// load errors — the same contract as go vet, so it slots into
// scripts/ci.sh unchanged.
//
// rampvet is the static half of RAMP's correctness tooling; the runtime
// half is internal/check, enabled with `go test -tags rampdebug ./...`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ramp/internal/lint"
	"ramp/internal/obs"
)

// jsonDiagnostic is the -json wire shape for one finding: the flat,
// stable subset of lint.Diagnostic that external tooling keys on.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run())
}

func run() int {
	listFlag := flag.Bool("list", false, "list available analyzers and exit")
	analyzersFlag := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	disableFlag := flag.String("disable", "", "comma-separated analyzers to exclude from the run")
	jsonFlag := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	tagsFlag := flag.String("tags", "", "comma-separated extra build tags (e.g. rampdebug)")
	obsFlags := obs.AddFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rampvet [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	rt, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rampvet:", err)
		return 2
	}
	defer rt.CloseOrLog()

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *analyzersFlag != "" {
		analyzers, err = lint.ByName(strings.Split(*analyzersFlag, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *disableFlag != "" {
		// Validate the names first so a typo fails loudly instead of
		// silently disabling nothing.
		if _, err := lint.ByName(strings.Split(*disableFlag, ",")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		disabled := map[string]bool{}
		for _, name := range strings.Split(*disableFlag, ",") {
			disabled[strings.TrimSpace(name)] = true
		}
		kept := analyzers[:0:0]
		for _, a := range analyzers {
			if !disabled[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "rampvet: every analyzer is disabled")
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var tags []string
	if *tagsFlag != "" {
		tags = strings.Split(*tagsFlag, ",")
	}
	diags, err := lint.Run(cwd, flag.Args(), analyzers, tags...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *jsonFlag {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rampvet: %d issue(s) found\n", len(diags))
		return 1
	}
	return 0
}
