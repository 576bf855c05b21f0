// Package driver runs the fomodelvet analyzers over loaded packages,
// applies //folint:allow suppressions, and returns position-resolved
// diagnostics ready to print. It is shared by the fomodelvet binary
// and the test harness, so suppression semantics cannot drift between
// them.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"fomodel/internal/lint/analysis"
	"fomodel/internal/lint/load"
)

// Diagnostic is one finding with its position resolved, independent
// of any FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// MetaAnalyzer attributes the driver's own diagnostics about the
// suppression mechanism (missing reasons, stale allows).
const MetaAnalyzer = "folint"

// allowRE matches the escape hatch. The required shape is
//
//	//folint:allow(analyzer1,analyzer2) reason the violation is intended
//
// following the Go directive-comment convention (no space after //);
// the space-separated spelling is accepted too so a gofmt-style
// comment still counts rather than silently not suppressing.
var allowRE = regexp.MustCompile(`^//\s?folint:allow\(([^)]*)\)\s*(.*)$`)

// allow is one parsed //folint:allow comment.
type allow struct {
	pos    token.Position
	names  []string
	reason string
	used   map[string]bool
}

// collectAllows parses every //folint:allow comment of a file.
func collectAllows(fset *token.FileSet, file *ast.File) []*allow {
	var allows []*allow
	for _, group := range file.Comments {
		for _, c := range group.List {
			m := allowRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			a := &allow{
				pos:    fset.Position(c.Pos()),
				reason: strings.TrimSpace(m[2]),
				used:   map[string]bool{},
			}
			for _, n := range strings.Split(m[1], ",") {
				if n = strings.TrimSpace(n); n != "" {
					a.names = append(a.names, n)
				}
			}
			allows = append(allows, a)
		}
	}
	return allows
}

// Run executes every analyzer over every package, filters diagnostics
// through //folint:allow comments, and reports suppression misuse.
// Diagnostics in _test.go files are dropped: tests are allowed to do
// what production code is not (fixed seeds aside, they are where
// clocks and contexts get faked).
//
// A suppression applies to diagnostics of the named analyzers on the
// comment's own line or the line directly below it (the standalone
// comment-above form). Every allow must carry a reason, and an allow
// that suppresses nothing is itself reported — stale escapes rot.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	inRun := map[string]bool{}
	for _, a := range analyzers {
		inRun[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					raw = append(raw, Diagnostic{
						Pos:      pkg.Fset.Position(d.Pos),
						Analyzer: d.Analyzer,
						Message:  d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.Path, a.Name, err)
			}
		}

		allows := map[string][]*allow{} // filename -> allows
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			allows[name] = collectAllows(pkg.Fset, f)
		}

		for _, d := range raw {
			if strings.HasSuffix(d.Pos.Filename, "_test.go") {
				continue
			}
			if suppressed(allows[d.Pos.Filename], d) {
				continue
			}
			out = append(out, d)
		}

		// Suppression hygiene: reasons are mandatory, stale allows are
		// findings. An allow naming an analyzer outside this run is
		// left alone — single-analyzer runs (tests) must not flag the
		// other analyzers' annotations as stale.
		for _, file := range sortedKeys(allows) {
			for _, a := range allows[file] {
				if strings.HasSuffix(file, "_test.go") {
					continue
				}
				if a.reason == "" {
					out = append(out, Diagnostic{
						Pos:      a.pos,
						Analyzer: MetaAnalyzer,
						Message: fmt.Sprintf("folint:allow(%s) needs a reason: write //folint:allow(%s) <why this violation is intended>",
							strings.Join(a.names, ","), strings.Join(a.names, ",")),
					})
				}
				for _, n := range a.names {
					if inRun[n] && !a.used[n] {
						out = append(out, Diagnostic{
							Pos:      a.pos,
							Analyzer: MetaAnalyzer,
							Message:  fmt.Sprintf("unused folint:allow(%s): no %s diagnostic here anymore; delete the comment", n, n),
						})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// suppressed reports (and records) whether d is covered by an allow
// on its own line or the line above.
func suppressed(allows []*allow, d Diagnostic) bool {
	for _, a := range allows {
		if a.pos.Line != d.Pos.Line && a.pos.Line != d.Pos.Line-1 {
			continue
		}
		for _, n := range a.names {
			if n == d.Analyzer {
				a.used[n] = true
				return true
			}
		}
	}
	return false
}

func sortedKeys(m map[string][]*allow) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
