package macrobase

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
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
	"macrobase/internal/ingest.TornFrames":      "cuts an MBR1 stream inside a frame for the binary decoder's and mbserver's robustness tests, which check that a torn body is rejected cleanly",
	"macrobase/internal/baselines.NewKNNScorer": "the kNN distance baseline that BenchmarkKNNBaseline runs; the root package's benchmarks are test files",
	"macrobase/internal/gen.SkewedDevices":      "the Zipf workload that BenchmarkRebalance and pipeline's rebalance tests run; the root package's benchmarks are test files",
}

// goDecl is one exported top-level function or type.
type goDecl struct {
	pkg, name, pos string
}

// srcFile is one parsed Go file of the repository.
type srcFile struct {
	pkg  string // import path
	path string // slash-separated, relative to the repository root
	ast  *ast.File
}

// isTest reports whether f is a _test.go file.
func (f srcFile) isTest() bool { return strings.HasSuffix(f.path, "_test.go") }

// parseRepo parses every Go file under the repository root, bench/
// included, with its comments, skipping dot directories and testdata;
// withTests adds the _test.go files.
func parseRepo(t *testing.T, fset *token.FileSet, withTests bool) []srcFile {
	t.Helper()
	var files []srcFile
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
		if !strings.HasSuffix(p, ".go") || (!withTests && strings.HasSuffix(p, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := "macrobase"
		if dir != "." {
			pkg += "/" + dir
		}
		files = append(files, srcFile{pkg, filepath.ToSlash(p), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestExportedNamesHaveCallers fails for an exported top-level function
// or type, in a non-test file outside bench/, that no non-test file
// names. Files under bench/ and examples/ count as callers; a name used
// only by tests belongs in the _test.go file that uses it. A method's
// receiver does not count as a mention of its type.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := parseRepo(t, fset, false)

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
			self := map[string]bool{fd.Name.Name: true}
			visit(fd.Type, self) // not fd.Recv
			if fd.Body != nil {
				visit(fd.Body, self)
			}
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
// and a method's receiver is not visited at all, so a type that only
// its own methods name has no caller.
func specNames(s ast.Spec) map[string]bool {
	if ts, ok := s.(*ast.TypeSpec); ok {
		return map[string]bool{ts.Name.Name: true}
	}
	return nil
}

// TestNamedTestsExist fails for a Test, Benchmark or Fuzz function
// that no _test.go file declares and that .github/workflows/ci.yml
// names in a -run, -bench or -fuzz pattern, or that doc.go names. A
// renamed test would otherwise leave the step that names it passing on
// "no tests to run", and the text that names it pointing nowhere.
func TestNamedTestsExist(t *testing.T) {
	declared := make(map[string]bool)
	for _, f := range parseRepo(t, token.NewFileSet(), true) {
		if !f.isTest() {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				declared[fd.Name.Name] = true
			}
		}
	}
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	names := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	named := make(map[string]string) // name -> the file naming it
	for _, m := range regexp.MustCompile(`-(?:run|bench|fuzz)\s+('[^']*'|\S+)`).FindAllStringSubmatch(read(".github/workflows/ci.yml"), -1) {
		for _, n := range names.FindAllString(expandGroups(strings.Trim(m[1], "'")), -1) {
			named[n] = "ci.yml"
		}
	}
	for _, n := range names.FindAllString(read("doc.go"), -1) {
		named[n] = "doc.go"
	}
	if len(named) == 0 {
		t.Fatal("no test names found in ci.yml or doc.go")
	}
	for n, where := range named {
		if !declared[n] {
			t.Errorf("%s names %s, which no _test.go file declares", where, n)
		}
	}
}

// TestNamedIdentifiersResolve fails for a package-qualified identifier,
// pkg.Name or pkg.Name.Member, written in a comment of a non-test Go
// file outside bench/ (doc.go is one), that names nothing: pkg is an
// internal/ package, Name an exported name in it, and neither Name nor
// Member is declared there (a func, type, method, field, var or const,
// tests included; a member may be promoted from an embedded type). A
// deleted or renamed declaration would otherwise leave the prose that
// names it pointing nowhere.
func TestNamedIdentifiersResolve(t *testing.T) {
	fset := token.NewFileSet()
	files := parseRepo(t, fset, true)
	decls := make(map[string]*pkgDecls) // internal package name -> its declarations
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "macrobase/internal/") {
			continue
		}
		name := path.Base(f.pkg)
		if decls[name] == nil {
			decls[name] = &pkgDecls{names: make(map[string]bool), members: make(map[string]map[string]bool), embeds: make(map[string][]ast.Expr)}
		}
		decls[name].add(f.ast)
	}
	pkgs := make([]string, 0, len(decls))
	for name := range decls {
		pkgs = append(pkgs, name)
	}
	sort.Strings(pkgs)
	ref := regexp.MustCompile(`\b(` + strings.Join(pkgs, "|") + `)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)

	checked := 0
	for _, f := range files {
		if f.isTest() || strings.HasPrefix(f.pkg, "macrobase/bench") {
			continue
		}
		for _, cg := range f.ast.Comments {
			for _, c := range cg.List {
				for _, m := range ref.FindAllStringSubmatchIndex(c.Text, -1) {
					checked++
					pkg, name, member := c.Text[m[2]:m[3]], c.Text[m[4]:m[5]], ""
					if m[6] >= 0 {
						member = c.Text[m[6]:m[7]]
					}
					if decls[pkg].resolves(decls, name, member) {
						continue
					}
					pos := fset.Position(c.Pos())
					pos.Line += strings.Count(c.Text[:m[0]], "\n")
					t.Errorf("%s:%d names %s, which is not declared in package %s", f.path, pos.Line, c.Text[m[0]:m[1]], pkg)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no package-qualified identifiers found in comments")
	}
}

// pkgDecls is one package's declarations: its top-level names, each
// type's methods and fields, and each type's embedded types.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool // type name -> method and field names
	embeds  map[string][]ast.Expr      // type name -> embedded types
}

// add records f's declarations.
func (p *pkgDecls) add(f *ast.File) {
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = make(map[string]bool)
		}
		p.members[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
			} else {
				member(baseTypeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						p.names[id.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, id := range fld.Names {
							member(s.Name.Name, id.Name)
						}
						if len(fld.Names) == 0 {
							member(s.Name.Name, baseTypeName(fld.Type))
							p.embeds[s.Name.Name] = append(p.embeds[s.Name.Name], fld.Type)
						}
					}
				}
			}
		}
	}
}

// resolves reports whether name, and member when it is not empty, are
// declared in p; a member may be promoted from an embedded type,
// another internal package's included.
func (p *pkgDecls) resolves(all map[string]*pkgDecls, name, member string) bool {
	if !p.names[name] {
		return false
	}
	if member == "" || p.members[name][member] {
		return true
	}
	for _, e := range p.embeds[name] {
		for {
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
				continue
			}
			break
		}
		owner := p
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok {
				owner = all[x.Name]
			}
		}
		if owner != nil && owner.resolves(all, baseTypeName(e), member) {
			return true
		}
	}
	return false
}

// baseTypeName is the name of the type a receiver or embedded field
// names, without pointer, package or type parameters.
func baseTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return baseTypeName(e.X)
	case *ast.IndexExpr:
		return baseTypeName(e.X)
	case *ast.IndexListExpr:
		return baseTypeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// expandGroups rewrites each group of alternatives in a test pattern
// as the words it stands for: ^Benchmark(A|B)$ becomes ^BenchmarkA|BenchmarkB$.
func expandGroups(pat string) string {
	group := regexp.MustCompile(`(\w*)\(([^()]*)\)(\w*)`)
	for {
		m := group.FindStringSubmatchIndex(pat)
		if m == nil {
			return pat
		}
		alts := strings.Split(pat[m[4]:m[5]], "|")
		for i, a := range alts {
			alts[i] = pat[m[2]:m[3]] + a + pat[m[6]:m[7]]
		}
		pat = pat[:m[0]] + strings.Join(alts, "|") + pat[m[1]:]
	}
}

// TestConfigFieldsHaveSetters fails for an exported field of an exported
// struct type named *Config, declared in a non-test file outside
// bench/, that no non-test file sets. (Other structs carry results and
// state, whose fields their own package writes.) A field is set by a
// composite literal that names it or fills it by position, by a JSON
// tag (the decoder sets it), or by an assignment, increment or
// address-of from outside its own package; assignments inside the
// declaring package fill defaults, so they do not count. Files under
// bench/ and examples/ count as setters; tests do not. A setting no run
// can turn, whether tests set it or nothing does, is a constant or an
// unexported field the tests in its package set.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	files := parseRepo(t, fset, true)

	// Declared fields, by the position of their name.
	declared := make(map[token.Pos]string)
	for _, f := range files {
		if f.isTest() || strings.HasPrefix(f.pkg, "macrobase/bench") {
			continue
		}
		for _, d := range f.ast.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range g.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					if fld.Tag != nil {
						tag, _ := strconv.Unquote(fld.Tag.Value)
						if j := reflect.StructTag(tag).Get("json"); j != "" && j != "-" {
							continue // the JSON decoder sets it
						}
					}
					for _, id := range fld.Names {
						if id.IsExported() {
							declared[id.Pos()] = f.pkg + "." + ts.Name.Name + "." + id.Name
						}
					}
				}
			}
		}
	}

	setByCode := make(map[token.Pos]bool)
	for _, c := range typeCheckRepo(t, fset, files) {
		record := func(fld *types.Var, at token.Pos, crossPkg bool) {
			if _, ok := declared[fld.Pos()]; !ok || strings.HasSuffix(fset.File(at).Name(), "_test.go") {
				return
			}
			if crossPkg || fld.Pkg() != c.pkg {
				setByCode[fld.Pos()] = true
			}
		}
		assigned := func(e ast.Expr) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s, ok := c.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
				record(s.Obj().(*types.Var), sel.Pos(), false)
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tv, ok := c.info.Types[n]
					if !ok {
						return true
					}
					st, ok := tv.Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if fld, ok := c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								record(fld, kv.Pos(), true)
							}
						} else {
							record(st.Field(i), e.Pos(), true)
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						assigned(e)
					}
				case *ast.IncDecStmt:
					assigned(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						assigned(n.X)
					}
				}
				return true
			})
		}
	}

	var missing []string
	for pos, key := range declared {
		if !setByCode[pos] {
			missing = append(missing, fset.Position(pos).String()+": "+key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is set by no non-test code: make it a constant or an unexported field", m)
	}
}

// checkedPkg is one type-checked package: a package with its in-package
// test files, or an external _test package.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// typeCheckRepo type-checks every package in files, each together with
// its in-package tests, plus each external _test package. Imports of
// this repository's packages resolve to their non-test files; the
// standard library is checked from source.
func typeCheckRepo(t *testing.T, fset *token.FileSet, files []srcFile) []checkedPkg {
	t.Helper()
	type unit struct{ code, tests, xtests []*ast.File }
	units := make(map[string]*unit)
	for _, f := range files {
		if ok, err := build.Default.MatchFile(path.Dir(f.path), path.Base(f.path)); err != nil || !ok {
			continue // excluded by its build constraints, e.g. under -race
		}
		u := units[f.pkg]
		if u == nil {
			u = &unit{}
			units[f.pkg] = u
		}
		switch {
		case !f.isTest():
			u.code = append(u.code, f.ast)
		case strings.HasSuffix(f.ast.Name.Name, "_test"):
			u.xtests = append(u.xtests, f.ast)
		default:
			u.tests = append(u.tests, f.ast)
		}
	}
	imp := &repoImporter{
		fset: fset,
		code: make(map[string][]*ast.File),
		done: make(map[string]*types.Package),
		std:  importer.ForCompiler(fset, "source", nil),
	}
	for p, u := range units {
		imp.code[p] = u.code
	}
	var out []checkedPkg
	check := func(path string, files []*ast.File) {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		out = append(out, checkedPkg{pkg, files, info})
	}
	for p, u := range units {
		if len(u.code)+len(u.tests) > 0 {
			check(p, append(append([]*ast.File(nil), u.code...), u.tests...))
		}
		if len(u.xtests) > 0 {
			check(p+"_test", u.xtests)
		}
	}
	return out
}

// repoImporter resolves this repository's packages from their parsed
// non-test files and everything else through std.
type repoImporter struct {
	fset *token.FileSet
	code map[string][]*ast.File
	done map[string]*types.Package
	std  types.Importer
}

func (im *repoImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.done[path]; ok {
		return p, nil
	}
	files, ok := im.code[path]
	if !ok {
		return im.std.Import(path)
	}
	p, err := (&types.Config{Importer: im}).Check(path, im.fset, files, nil)
	if err != nil {
		return nil, err
	}
	im.done[path] = p
	return p, nil
}
