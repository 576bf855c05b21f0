// Command fomodelvet runs this repository's project-invariant
// analyzer suite (internal/lint): determinism of the pure model,
// canonical request keying, context and lock discipline, and error
// handling on the serving path.
//
// Usage:
//
//	fomodelvet [-json] [packages]     # default ./...
//
// Exit status is non-zero when any diagnostic survives //folint:allow
// filtering; see DESIGN.md §7 for the invariants and the escape hatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fomodel/internal/lint"
	"fomodel/internal/lint/driver"
	"fomodel/internal/lint/load"
)

func main() {
	os.Exit(standalone(os.Args[1:]))
}

// standalone loads packages by pattern and prints diagnostics.
func standalone(args []string) int {
	fs := flag.NewFlagSet("fomodelvet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: fomodelvet [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nSuppress a finding with //folint:allow(<analyzer>) <reason>.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := driver.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, len(diags))
		for i, d := range diags {
			out[i] = jsonDiag{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
		}
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
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "fomodelvet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
