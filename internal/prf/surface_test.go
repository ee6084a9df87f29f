package prf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestPRFSurface pins what the product side of the package declares.  H
// has two handles — Func (the scalar engine, pooled) and MultiEvaluator
// (batches at the lane policy's width, and lone messages) — and the
// product runs three SHA-256 implementations: the SHA-NI kernel
// blocksSHANI, crypto/sha256 where that kernel does not run, and
// compress8.  The from-scratch hash and RFC 2104 HMAC are the test
// reference (sha256ref_test.go); a third evaluation handle in the non-test
// files fails here by name, and so does the reference's compress.
func TestPRFSurface(t *testing.T) {
	want := []string{
		"AppendPart", "AppendPartHeader", "AppendTupleHeader",
		"BitSource", "BlockSize", "DigestSize", "ErrProbRange", "ErrShortKey",
		"Biased", "Biased.Bias", "Biased.Bit", "Biased.Func", "Biased.Prob",
		"Func", "Func.DeriveKey", "Func.Digest", "Func.Expand", "Func.NewMultiEvaluator", "Func.Uint64",
		"GeneratorKey", "HasAcceleratedLanes", "Lanes", "MinKeyBits", "MinKeyBytes",
		"MultiEvaluator", "MultiEvaluator.DigestBatch", "MultiEvaluator.Rebind",
		"MultiEvaluator.Uint64Batch", "MultiEvaluator.Uint64Msg", "MultiLaneBlockBench",
		"MustProb", "NewBiased", "NewFunc", "NewOracle", "NewProb",
		"Oracle", "Oracle.Bias", "Oracle.Bit", "Oracle.Entries", "Oracle.Reset",
		"Prob", "Prob.Decide", "Prob.Float", "Prob.String", "Prob.Threshold",
		"SetLanes",
	}
	// Unexported names the product must not declare either: the reference
	// compression stays test code.
	banned := []string{"compress"}

	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range topLevelNames(f) {
			if slices.Contains(banned, decl) {
				t.Errorf("%s declares %s, which belongs to the test reference", name, decl)
			}
			typ, method, _ := strings.Cut(decl, ".")
			if ast.IsExported(typ) && (method == "" || ast.IsExported(method)) {
				got = append(got, decl)
			}
		}
	}
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("non-test files export %s, which the pinned surface does not list", name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("pinned export %s is declared by no non-test file", name)
		}
	}
}

// topLevelNames returns a file's top-level declarations: functions, types,
// consts and vars by name, methods as Type.Method.
func topLevelNames(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				typ := d.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				name = typ.(*ast.Ident).Name + "." + name
			}
			out = append(out, name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						out = append(out, n.Name)
					}
				}
			}
		}
	}
	return out
}
