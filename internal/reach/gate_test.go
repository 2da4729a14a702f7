//go:build reach

package reach

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// allow lists the functions that stay although no main package or rsm
// export reaches them, each with its reason. The gate roots them too, so
// what they call needs no entry of its own.
var allow = map[string]string{
	"repro/internal/core.SelectIC":              "ROADMAP item 11 compares BIC selection with CV and Cp",
	"repro/internal/core.Criterion.String":      "ROADMAP item 11, with SelectIC",
	"repro/internal/core.GramConditionEstimate": "ROADMAP item 7 exports active-Gram conditioning",

	// Test helpers that the tests of several packages share.
	"repro/internal/obs.ValidateExposition":      "checks /metrics in the server and obs tests",
	"repro/internal/faultinject.Reset":           "clears armed faults between tests",
	"repro/internal/faultinject.Disarm":          "disarms one fault point in tests",
	"repro/internal/faultinject.Enabled":         "asserts fault arming in tests",
	"repro/internal/registry.Open":               "opens a store without a logger in tests",
	"repro/internal/basis.DenseDesignFromMatrix": "wraps hand-made matrices as designs in the core solver tests",
	"repro/internal/linalg.NewMatrixFrom":        "builds hand-made matrices in the linalg and core tests",
}

// TestReach is the gate. Its roots are every main package of the module
// (cmd/*, examples/*, bench), a generated main that references every
// exported function, variable and method of package rsm's API, and one
// that references every allowlisted function. The two generated mains
// exist only in a build overlay, so the tree stays as it is.
func TestReach(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	list := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := strings.Fields(string(out))

	tmp := t.TempDir()
	replace := map[string]string{}
	for name, src := range map[string][]byte{"rsmroot": rsmRoot(t, root), "allowroot": allowRoot()} {
		gen := filepath.Join(tmp, name+".go")
		if err := os.WriteFile(gen, src, 0o644); err != nil {
			t.Fatal(err)
		}
		replace[filepath.Join(root, "internal/reach", name, "main.go")] = gen
		mains = append(mains, "repro/internal/reach/"+name)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": replace})
	if err != nil {
		t.Fatal(err)
	}
	ov := filepath.Join(tmp, "overlay.json")
	if err := os.WriteFile(ov, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	bins := buildMains(t, root, []string{"-overlay", ov}, mains...)

	decl := declared(t, filepath.Join(root, "internal"), "repro/internal")
	var bad []string
	for _, name := range unreached(decl, linked(t, bins...)) {
		bad = append(bad, fmt.Sprintf("%s: %s", decl[name], name))
	}
	if len(bad) > 0 {
		t.Errorf("%d functions reached from no main package or rsm export; delete them, or allowlist one with its reason:\n%s",
			len(bad), strings.Join(bad, "\n"))
	}
	var real []string
	for _, bin := range bins {
		if filepath.Base(bin) != "allowroot" {
			real = append(real, bin)
		}
	}
	syms := linked(t, real...)
	for name := range allow {
		if _, ok := decl[name]; !ok {
			t.Errorf("allowlisted %s is not declared any more; drop its entry", name)
		} else if syms[name] {
			t.Errorf("allowlisted %s is reached now; drop its entry", name)
		}
	}
	t.Logf("%d functions declared under internal/, %d roots", len(decl), len(mains))
}

// allowRoot generates a main package that references every allowlisted
// function. A name is importPath.F, importPath.T.M or importPath.(*T).M.
func allowRoot() []byte {
	alias := map[string]string{}
	var body strings.Builder
	for name := range allow {
		slash := strings.LastIndex(name, "/")
		dot := slash + strings.Index(name[slash:], ".")
		path, expr := name[:dot], name[dot+1:]
		if _, ok := alias[path]; !ok {
			alias[path] = fmt.Sprintf("p%d", len(alias))
		}
		if m, ok := strings.CutPrefix(expr, "(*"); ok {
			expr = "(*" + alias[path] + "." + m
		} else {
			expr = alias[path] + "." + expr
		}
		fmt.Fprintf(&body, "\tsink = append(sink, %s)\n", expr)
	}
	return mainSource(alias, body.String())
}

// mainSource is a main package that imports each path under its alias and
// appends values to a package-level sink in body, which keeps them linked.
func mainSource(alias map[string]string, body string) []byte {
	var b strings.Builder
	b.WriteString("package main\n\nimport (\n")
	for path, name := range alias {
		fmt.Fprintf(&b, "\t%s %q\n", name, path)
	}
	b.WriteString(")\n\nvar sink []any\n\nfunc main() {\n" + body + "}\n")
	return []byte(b.String())
}

// rsmRoot generates a main package that roots package rsm's API: every
// exported function and variable of rsm, and every exported method of the
// module's named types that rsm's exported names lead to through
// signatures, exported fields and method results. The types come from
// export data rather than from reflect.Type.Method at run time, because a
// call of that makes the linker keep every exported method of every type
// in the binary, reached or not.
func rsmRoot(t *testing.T, root string) []byte {
	t.Helper()
	list := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./rsm")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Fields(string(out)) {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	rsm, err := imp.Import("repro/rsm")
	if err != nil {
		t.Fatal(err)
	}

	alias := map[string]string{} // import path -> name in the generated file
	qual := func(p *types.Package) string {
		if _, ok := alias[p.Path()]; !ok {
			alias[p.Path()] = fmt.Sprintf("p%d", len(alias))
		}
		return alias[p.Path()]
	}
	var body strings.Builder
	keep := func(expr string) { fmt.Fprintf(&body, "\tsink = append(sink, %s)\n", expr) }
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		typ = types.Unalias(typ)
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.(type) {
		case *types.Named:
			obj := u.Obj()
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/") {
				return
			}
			set, iface := types.Type(types.NewPointer(u)), types.IsInterface(u)
			if iface {
				set = u
			}
			// Method expressions need a nameable, non-generic type.
			nameable := obj.Exported() && u.TypeArgs().Len() == 0 && u.TypeParams().Len() == 0
			ms := types.NewMethodSet(set)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				if !m.Exported() {
					continue
				}
				if nameable {
					recv := qual(obj.Pkg()) + "." + obj.Name()
					if !iface {
						recv = "(*" + recv + ")"
					}
					keep(recv + "." + m.Name())
				}
				walk(m.Type())
			}
			walk(u.Underlying())
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Chan:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				walk(u.Method(i).Type())
			}
		}
	}
	scope := rsm.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func, *types.Var:
			if obj.Exported() {
				keep(qual(rsm) + "." + name)
				walk(obj.Type())
			}
		case *types.TypeName:
			if obj.Exported() {
				walk(obj.Type())
			}
		}
	}

	return mainSource(alias, body.String())
}
