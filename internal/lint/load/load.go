// Package load type-checks packages of this module for analysis
// without importing golang.org/x/tools. It drives `go list -export`
// to enumerate packages and produce compiler export data for every
// dependency, then parses the target packages from source and
// type-checks them with an importer that reads that export data — the
// same trick x/tools/go/packages uses, reduced to what the in-tree
// analyzers need.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path (or the synthetic path a
	// testdata package was checked under).
	Path string

	// Fset positions every file in Files; one Fset is shared by all
	// packages of a load so diagnostics across packages sort globally.
	Fset *token.FileSet

	// Files holds the parsed source files, with comments.
	Files []*ast.File

	// Types is the type-checked package.
	Types *types.Package

	// TypesInfo records the type-checker's resolutions for Files.
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded package stream.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles,Standard,DepOnly,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint/load: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint/load: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint/load: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer resolving import paths
// through the export-data files recorded by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint/load: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// check parses files and type-checks them as one package under
// pkgPath, importing dependencies through imp.
func check(fset *token.FileSet, pkgPath string, files []string, imp types.Importer) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint/load: %v", err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint/load: type-checking %s: %v", pkgPath, err)
	}
	return &Package{Path: pkgPath, Fset: fset, Files: syntax, Types: pkg, TypesInfo: info}, nil
}

// Packages loads, parses, and type-checks every package matching
// patterns, resolved from dir (typically the module root, with
// patterns like "./..."). Only non-test Go files are analyzed;
// dependencies are consumed as compiler export data, never re-parsed.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(t.GoFiles))
		for i, gf := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, gf)
		}
		pkg, err := check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// moduleRoot walks up from dir to the enclosing go.mod. Testdata
// trees live inside the module, so import resolution for their
// dependencies must run from the module root.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint/load: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Dir type-checks the single package formed by the non-test .go files
// directly under dir, under the synthetic import path pkgPath. It
// exists for testdata packages, which the go tool refuses to list:
// their imports (standard library or this module's packages) are
// resolved by one `go list -export` run from the module root.
func Dir(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint/load: %v", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint/load: no Go files in %s", dir)
	}
	sort.Strings(files)

	// Pre-parse (without resolving) to collect the import set.
	fset := token.NewFileSet()
	imports := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("lint/load: %v", err)
		}
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != "unsafe" {
				imports[path] = true
			}
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		root, err := moduleRoot(dir)
		if err != nil {
			return nil, err
		}
		var patterns []string
		for p := range imports {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		listed, err := goList(root, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset = token.NewFileSet()
	return check(fset, pkgPath, files, exportImporter(fset, exports))
}
