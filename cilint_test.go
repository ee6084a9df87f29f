package sketchprivacy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciTestFlag finds a go test -run or -fuzz flag and its pattern, quoted or
// not; ciTestName a literal test or fuzz target name in a pattern.
var (
	ciTestFlag = regexp.MustCompile(`-(run|fuzz)[= ](?:'([^']*)'|"([^"]*)"|(\S+))`)
	ciTestName = regexp.MustCompile(`(?:Test|Fuzz)[A-Za-z0-9_]*`)
)

// TestCIPatternsNameRealTests: every literal Test… or Fuzz… name in a -run
// or -fuzz pattern of the CI workflow is a test or fuzz target the step's
// packages declare.  go test matches a pattern against the names it finds
// and is content to find none — it exits 0 — so a test renamed or removed
// would otherwise drop out of its CI step without a sound.  A name anchored
// at both ends (^Name$) must be declared as it stands; an unanchored one
// is a substring go test matches, and must be part of a declared name.
func TestCIPatternsNameRealTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string][]string) // package directory → its tests
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		at := strings.Index(line, "go test ")
		if at < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		cmd := line[at:]
		flags := ciTestFlag.FindAllStringSubmatch(cmd, -1)
		if len(flags) == 0 {
			continue
		}
		var dirs []string
		for _, field := range strings.Fields(cmd) {
			if field = strings.TrimRight(field, ");"); field == "." || strings.HasPrefix(field, "./") {
				dirs = append(dirs, field)
			}
		}
		if len(dirs) == 0 {
			dirs = []string{"."}
		}
		var names []string
		for _, dir := range dirs {
			names = append(names, ciDeclaredTests(t, declared, dir)...)
		}
		for _, m := range flags {
			pattern := m[2] + m[3] + m[4]
			literals := 0
			for _, alt := range strings.Split(pattern, "|") {
				exact := strings.HasPrefix(alt, "^") && strings.HasSuffix(alt, "$")
				for _, name := range ciTestName.FindAllString(alt, -1) {
					literals++
					found := false
					for _, have := range names {
						if have == name || !exact && strings.Contains(have, name) {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("ci.yml line %d: -%s names %s, which %s does not declare", n+1, m[1], name, strings.Join(dirs, " "))
					}
				}
			}
			if literals == 0 {
				t.Errorf("ci.yml line %d: -%s %q names no test", n+1, m[1], pattern)
			}
			checked += literals
		}
	}
	// The workflow names some sixty tests; finding few means the patterns
	// are no longer being read.
	if checked < 40 {
		t.Fatalf("read %d test names from ci.yml's patterns, want at least 40", checked)
	}
}

// ciDeclaredTests returns the test and fuzz functions the _test.go files of
// the package directory dir declare — of every directory under it, for a
// ./... pattern — caching them in declared.
func ciDeclaredTests(t *testing.T, declared map[string][]string, dir string) []string {
	t.Helper()
	if names, ok := declared[dir]; ok {
		return names
	}
	var names []string
	root, recurse := strings.CutSuffix(dir, "/...")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (!recurse || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading the tests of %s: %v", dir, err)
	}
	declared[dir] = names
	return names
}
