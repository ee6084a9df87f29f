package sketchprivacy

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// minPackageDocLen is the threshold separating a real package comment
// from a placeholder: long enough that "Package x does x." cannot pass.
const minPackageDocLen = 120

// TestEveryPackageHasDocComment is the doc-comment lint CI runs: every
// Go package in this repository — internal libraries, commands and
// examples — must carry a substantive package comment.  A system this
// size is navigated through godoc first; an undocumented package is a
// regression, the same as a failing test.
func TestEveryPackageHasDocComment(t *testing.T) {
	roots := []string{".", "internal", "cmd", "examples"}
	seen := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if root != "." && path == root {
				return nil // the grouping directory itself holds no package
			}
			if root == "." && path != "." {
				return filepath.SkipDir // only the repo root; subtrees have their own roots
			}
			files, err := filepath.Glob(filepath.Join(path, "*.go"))
			if err != nil {
				return err
			}
			var sources []string
			for _, f := range files {
				if !strings.HasSuffix(f, "_test.go") {
					sources = append(sources, f)
				}
			}
			if len(sources) == 0 {
				return nil
			}
			seen++
			doc := longestPackageDoc(t, sources)
			switch {
			case doc == "":
				t.Errorf("package in %s has no package comment on any file", path)
			case len(doc) < minPackageDocLen:
				t.Errorf("package in %s has only a %d-character package comment — write a real one (what it is, why it exists, how it maps to the paper or the system)", path, len(doc))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if seen < 20 {
		t.Fatalf("doc lint walked only %d packages — directory layout changed?", seen)
	}
}

// TestDesignDescribesHead is the doc lint's DESIGN.md leg: the design
// document states the design as it stands, so it cites no change by
// number — not in a sentence, not as a table column's heading.  What a
// change moved, and by how much, is recorded in CHANGES.md.
func TestDesignDescribesHead(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cites := regexp.MustCompile(`PRs? [0-9]+`)
	for i, line := range strings.Split(string(data), "\n") {
		if m := cites.FindAllString(line, -1); m != nil {
			t.Errorf("DESIGN.md:%d cites %q: say what the design is, and leave its history to CHANGES.md", i+1, m)
		}
	}
}

// longestPackageDoc returns the longest package comment across the
// package's files (the convention here is a dedicated doc.go or a
// comment on the primary file).
func longestPackageDoc(t *testing.T, files []string) string {
	t.Helper()
	best := ""
	for _, f := range files {
		fset := token.NewFileSet()
		parsed, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Errorf("parsing %s: %v", f, err)
			continue
		}
		if parsed.Doc != nil {
			if text := strings.TrimSpace(parsed.Doc.Text()); len(text) > len(best) {
				best = text
			}
		}
	}
	return best
}
