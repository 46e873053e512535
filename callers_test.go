package macrobase

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported names that may stand without a
// non-test caller, each with its reason. Keep it short: anything else
// with no runner is deleted, or moves into the _test.go file that uses
// it as an oracle.
var uncalledAllowed = map[string]string{
	"macrobase/internal/core.NewFuncSource":     "the Source adapter for a callback; its tests hold it to SliceSource's partition view, and library users build streams with it",
	"macrobase/internal/ingest.TornFrames":      "the torn-frame count of a push partition, which the robustness tests read to check that a torn body is dropped whole",
	"macrobase/internal/baselines.NewKNNScorer": "the kNN distance baseline that BenchmarkKNNBaseline runs; the root package's benchmarks are test files",
}

// goDecl is one exported top-level function or type.
type goDecl struct {
	pkg, name, pos string
}

// TestExportedNamesHaveCallers fails for an exported top-level function
// or type, in a non-test file outside bench/, that no non-test file
// names. Files under bench/ and examples/ count as callers; a name used
// only by tests belongs in the _test.go file that uses it.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := "macrobase"
		if dir != "." {
			pkg += "/" + dir
		}
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Package names by import path, for imports without a local name.
	pkgName := make(map[string]string)
	for _, f := range files {
		pkgName[f.pkg] = f.ast.Name.Name
	}

	var decls []goDecl
	used := make(map[string]bool) // "importpath.Name"
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "macrobase/bench") {
			decls = append(decls, exportedDecls(fset, f.pkg, f.ast)...)
		}
		imports := make(map[string]string) // local name -> import path
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if n, ok := pkgName[ip]; ok {
				name = n
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		var visit func(n ast.Node, self map[string]bool)
		visit = func(n ast.Node, self map[string]bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							used[ip+"."+n.Sel.Name] = true
							return false
						}
					}
					visit(n.X, self) // n.Sel is a field or method
					return false
				case *ast.Field:
					visit(n.Type, self) // n.Names declare, not use
					return false
				case *ast.Ident:
					if !self[n.Name] {
						used[f.pkg+"."+n.Name] = true
					}
				}
				return true
			})
		}
		for _, d := range f.ast.Decls {
			if g, ok := d.(*ast.GenDecl); ok {
				for _, s := range g.Specs {
					visit(s, specNames(s))
				}
				continue
			}
			fd := d.(*ast.FuncDecl)
			visit(fd, map[string]bool{fd.Name.Name: true})
		}
	}

	var missing []string
	for _, d := range decls {
		key := d.pkg + "." + d.name
		if used[key] {
			continue
		}
		if _, ok := uncalledAllowed[key]; ok {
			continue
		}
		missing = append(missing, d.pos+": "+key)
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no non-test caller: delete it, give it a runner, or move it into the _test.go file that uses it", m)
	}
	for key := range uncalledAllowed {
		if used[key] {
			t.Errorf("%s is allowlisted but has a non-test caller now: take it off the list", key)
		}
	}
}

// exportedDecls lists f's exported top-level functions and types.
func exportedDecls(fset *token.FileSet, pkg string, f *ast.File) []goDecl {
	var out []goDecl
	add := func(id *ast.Ident) {
		if id.IsExported() {
			out = append(out, goDecl{pkg, id.Name, fset.Position(id.Pos()).String()})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					add(ts.Name)
				}
			}
		}
	}
	return out
}

// specNames is the name a type declaration may mention without that
// counting as a use: its own. A function may likewise mention itself,
// but a method's receiver names its type, and that counts.
func specNames(s ast.Spec) map[string]bool {
	if ts, ok := s.(*ast.TypeSpec); ok {
		return map[string]bool{ts.Name.Name: true}
	}
	return nil
}
