package fomodel_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	// fuzzLine matches one fuzz-smoke recipe line: the package and the
	// fuzz target it runs.
	fuzzLine = regexp.MustCompile(`^\t\$\(GO\) test (\./\S+) .*-fuzz (\w+) `)
)

// TestFuzzSmokeListsEveryFuzzTarget checks the Makefile's fuzz-smoke
// recipe, which CI runs, against the module's fuzz targets: every
// func Fuzz* must have a line, and every line must name a target that
// exists in its package.
func TestFuzzSmokeListsEveryFuzzTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	inRecipe := false
	for _, line := range strings.Split(string(mk), "\n") {
		switch {
		case line == "fuzz-smoke:":
			inRecipe = true
		case inRecipe && !strings.HasPrefix(line, "\t"):
			inRecipe = false
		case inRecipe:
			m := fuzzLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("fuzz-smoke line not understood: %q", line)
			}
			listed[m[1]+" "+m[2]] = true
		}
	}
	if len(listed) == 0 {
		t.Fatal("Makefile has no fuzz-smoke recipe")
	}

	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// Hidden directories, testdata and nested modules (bench/)
			// are not part of this module's packages.
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found["./"+filepath.ToSlash(filepath.Dir(path))+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %s is missing from the Makefile's fuzz-smoke", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("fuzz-smoke runs %s, which does not exist", target)
		}
	}
}
