package obdrel

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the functions and methods that no non-test
// code calls but that stay in a non-test file, each with the test or
// document that needs it there. Keys are written as the scan reports
// them: the package path without the module prefix ("obdrel" for the
// root package), then the receiver's type name for a method, then the
// function name.
var testOnlyAllowlist = map[string]string{
	"internal/grid.Model.Covariance": "dense n×n covariance: the oracle of TestSamplingEnginesMatchDenseOracle (pca_test.go) and of the grid package's block-PCA and CovarianceAmong tests",
	"internal/obs.SpanOut.Walk":      "span-tree traversal the obs, thermal and server tests read finished traces with",
	"internal/stats.MeanVariance":    "sample moments the stats, blod and grid tests compare Monte-Carlo draws against analytic moments with",
	"internal/stats.Correlation":     "sample correlation the stats, blod and grid tests compare Monte-Carlo draws against the covariance model with",
}

// TestNoTestOnlyCode fails when a function or method of the module is
// called only by tests. The callers are every non-test file of the
// module and of the benchmark harness (benchmark/, its own module built
// against this one); a function is live when one of them reaches it
// through a chain of live callers, found to a fixpoint, so a helper
// that only dead code calls is dead too. A method that makes its type
// implement an interface (named or anonymous, declared in the module or
// in a standard package it imports) is live, because a call through
// that interface never names the method. Each dead function is either
// deleted, moved into the _test.go file that uses it, or listed in
// testOnlyAllowlist with its reason; an allowlist entry that is live
// or gone fails too.
func TestNoTestOnlyCode(t *testing.T) {
	t.Parallel()
	s := newDeadScan(t)
	dead := s.dead()

	for _, key := range sortedKeys(dead) {
		if _, ok := testOnlyAllowlist[key]; !ok {
			t.Errorf("%s: %s is called only by tests: delete it, move it into the _test.go file that uses it, or allowlist it with a reason", dead[key], key)
		}
	}
	for key, reason := range testOnlyAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if _, ok := dead[key]; !ok {
			t.Errorf("allowlist entry %s is stale: it is gone or non-test code calls it", key)
		}
	}
}

// deadScan holds the type-checked non-test sources of the module and
// the benchmark harness.
type deadScan struct {
	t    *testing.T
	fset *token.FileSet
	root string // module root directory
	std  types.Importer
	pkgs map[string]*deadPkg // by import path
}

type deadPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	own   bool // declared in the module (its functions are candidates)
}

const deadModule = "obdrel"

func newDeadScan(t *testing.T) *deadScan {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	s := &deadScan{
		t:    t,
		fset: fset,
		root: root,
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*deadPkg{},
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "benchmark" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := deadModule
		if rel != "." {
			ip = deadModule + "/" + filepath.ToSlash(rel)
		}
		if _, err := s.load(ip, path, true); err != nil && !isNoGo(err) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.load(deadModule+"/benchmark", filepath.Join(root, "benchmark"), false); err != nil {
		t.Fatal(err)
	}
	return s
}

func isNoGo(err error) bool {
	_, ok := err.(*build.NoGoError)
	return ok
}

// load parses and type-checks the non-test files of dir that the
// host's build constraints select, importing module packages through
// load itself and standard packages from the toolchain's export data.
func (s *deadScan) load(importPath, dir string, own bool) (*types.Package, error) {
	if p, ok := s.pkgs[importPath]; ok {
		return p.pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if path == deadModule || strings.HasPrefix(path, deadModule+"/") {
			rel := strings.TrimPrefix(strings.TrimPrefix(path, deadModule), "/")
			return s.load(path, filepath.Join(s.root, filepath.FromSlash(rel)), true)
		}
		return s.std.Import(path)
	})}
	pkg, err := conf.Check(importPath, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[importPath] = &deadPkg{pkg: pkg, files: files, info: info, own: own}
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// dead returns every candidate function that no live caller reaches,
// keyed as in testOnlyAllowlist, with its position.
func (s *deadScan) dead() map[string]string {
	candidates := map[*types.Func]bool{}
	var roots []*types.Func
	calls := map[*types.Func][]*types.Func{} // caller → callees
	for fn := range s.interfaceMethods() {
		roots = append(roots, fn)
	}
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					// Package-level initializers run unconditionally.
					ast.Inspect(decl, func(n ast.Node) bool {
						if fn := p.usedFunc(n); fn != nil {
							roots = append(roots, fn)
						}
						return true
					})
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if !p.own || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					roots = append(roots, fn)
				} else {
					candidates[fn] = true
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					if callee := p.usedFunc(n); callee != nil {
						calls[fn] = append(calls[fn], callee)
					}
					return true
				})
			}
		}
	}

	live := map[*types.Func]bool{}
	for work := roots; len(work) > 0; {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if !live[fn] {
			live[fn] = true
			work = append(work, calls[fn]...)
		}
	}

	out := map[string]string{}
	for fn := range candidates {
		if !live[fn] {
			out[funcKey(fn)] = s.position(fn)
		}
	}
	return out
}

// usedFunc returns the module function an identifier refers to, with
// a generic function's or method's instantiation mapped back to its
// declaration.
func (p *deadPkg) usedFunc(n ast.Node) *types.Func {
	id, ok := n.(*ast.Ident)
	if !ok {
		return nil
	}
	fn, ok := p.info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// errorsConventions declares the methods the errors package calls
// through anonymous interfaces inside its function bodies, which
// export data does not carry.
const errorsConventions = `package conventions
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// interfaceMethods returns the module's methods that a call through
// an interface can reach without naming them: for every named type of
// the module and every interface it implements, the methods (promoted
// ones included) that satisfy the interface. The interfaces are those
// the module's sources declare or spell out, named or anonymous, the
// exported named interfaces of every standard package they import,
// directly or not, and errorsConventions. A generic type's methods are
// matched by name alone.
func (s *deadScan) interfaceMethods() map[*types.Func]bool {
	byName := map[string][]*types.Interface{}
	add := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	addScope := func(pkg *types.Package) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				add(named)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if !seen[pkg] {
			seen[pkg] = true
			for _, imp := range pkg.Imports() {
				visit(imp)
			}
			addScope(pkg)
		}
	}
	conv, err := parser.ParseFile(s.fset, "conventions.go", errorsConventions, 0)
	if err != nil {
		s.t.Fatal(err)
	}
	convPkg, err := (&types.Config{}).Check("conventions", s.fset, []*ast.File{conv}, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	addScope(convPkg)
	add(types.Universe.Lookup("error").Type())
	for _, p := range s.pkgs {
		visit(p.pkg)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}

	out := map[*types.Func]bool{}
	for _, p := range s.pkgs {
		if !p.own {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				fn := mset.At(i).Obj().(*types.Func)
				for _, it := range byName[fn.Name()] {
					if named.TypeParams().Len() > 0 || types.Implements(ptr, it) {
						out[fn.Origin()] = true
						break
					}
				}
			}
		}
	}
	return out
}

// funcKey names fn as testOnlyAllowlist does, e.g.
// "internal/grid.Model.Covariance" or "obdrel.Analyzer.Reliability".
func funcKey(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), deadModule), "/")
	if pkg == "" {
		pkg = deadModule
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, ok := typ.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

func (s *deadScan) position(fn *types.Func) string {
	pos := s.fset.Position(fn.Pos())
	if rel, err := filepath.Rel(s.root, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
