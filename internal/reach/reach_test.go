package reach

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// declared lists the top-level functions and methods in the non-test Go
// files under dir, keyed by the name `go tool nm` gives their symbol:
// importPath.F, importPath.(*T).M or importPath.T.M, with type arguments
// and receiver type parameters dropped. The value is file:line. dir maps
// to the import path prefix; testdata directories are skipped.
func declared(t *testing.T, dir, prefix string) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := prefix
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			out[pkg+"."+funcName(fn)] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// funcName is F, (*T).M or T.M for a function declaration.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ, star := fn.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

// linked returns the text symbols of the binaries, with every bracketed
// type-argument list removed, so F[go.shape.int] reads F.
func linked(t *testing.T, bins ...string) map[string]bool {
	t.Helper()
	syms := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			// Each line is "address type name"; undefined symbols have
			// no address.
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			syms[stripTypeArgs(strings.Join(f[2:], " "))] = true
		}
	}
	return syms
}

func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// buildMains builds the packages with inlining off, so that no callee is
// hidden inside its caller, into one binary each under a temporary
// directory, and returns their paths.
func buildMains(t *testing.T, dir string, extra []string, pkgs ...string) []string {
	t.Helper()
	out := t.TempDir()
	args := append([]string{"build", "-gcflags=all=-l", "-o", out + string(filepath.Separator)}, extra...)
	cmd := exec.Command("go", append(args, pkgs...)...)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	ents, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var bins []string
	for _, e := range ents {
		bins = append(bins, filepath.Join(out, e.Name()))
	}
	if len(bins) != len(pkgs) {
		t.Fatalf("built %d binaries from %d packages", len(bins), len(pkgs))
	}
	return bins
}

// unreached returns the sorted names in decl that no symbol in syms has.
func unreached(decl map[string]string, syms map[string]bool) []string {
	var out []string
	for name := range decl {
		if !syms[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// TestReachFixture runs the gate's method over a module that plants one
// unreached function, pointer-receiver method and value-receiver method
// beside reached generic code. A slip in mapping declarations to symbol
// names would either report the generic code or miss a planted item.
func TestReachFixture(t *testing.T) {
	dir, err := filepath.Abs("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	bins := buildMains(t, dir, nil, ".")
	got := unreached(declared(t, filepath.Join(dir, "lib"), "fixture/lib"), linked(t, bins...))
	want := []string{"fixture/lib.(*T).PtrUnused", "fixture/lib.T.ValUnused", "fixture/lib.Unused"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unreached = %q, want %q", got, want)
	}
}
