package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// exceptions are the exported internal identifiers, or whole internal
// packages, kept without a caller, each with its reason.  Names are
// module-relative: "internal/pkg.Name", "internal/pkg.Type.Method" or
// "internal/pkg".  A listed name that gains a caller, or no longer
// exists, is a finding, so the list can only shrink.
var exceptions = []string{
	// The paper's link pair fidelity (Eq 4), which the correctness
	// ledger is to call.
	"internal/fidelity.LinkPairFidelity",
	// The reference noise model that exact enumeration is to check the
	// purification model against.
	"internal/quantum",
}

// listedPackage is the part of `go list -json` output the check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
}

// uncalled type-checks the non-test files of the module rooted at root
// and of every module nested under it, and reports each exported
// identifier under root's internal/ that no reachable declaration
// refers to: package-level functions, types, variables and constants,
// and the exported methods of named types.  Every declaration of a
// package outside internal/ is reachable, and so is every declaration a
// reachable one refers to, so code that only other dead code reaches is
// dead too.  A method is not a finding when its type satisfies an
// interface that has the method, since a call through the interface
// names the interface's method instead; nor is a method of a type that
// a package under qnet/ re-exports by alias, which makes it public API.
// Such a method is reachable once its type is, and so is an init
// function and whatever an exception declares.  Struct fields are not
// checked.
func uncalled(root string, except []string) ([]string, error) {
	modules, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	var mainPath string
	exports := map[string]string{}
	var own []listedPackage // every module package, dependencies first
	seen := map[string]bool{}
	for i, dir := range modules {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Standard || seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			own = append(own, p)
			if i == 0 && !p.DepOnly && p.Module != nil {
				mainPath = p.Module.Path
			}
		}
	}
	if mainPath == "" {
		return nil, fmt.Errorf("no packages in the module at %s", root)
	}
	rel := func(path string) string {
		if path == mainPath {
			return ""
		}
		return strings.TrimPrefix(path, mainPath+"/")
	}
	internal := func(path string) bool {
		r := rel(path)
		return r != path && (r == "internal" || strings.HasPrefix(r, "internal/"))
	}

	fset := token.NewFileSet()
	fromExport := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return fromExport.Import(path)
	})}

	exceptFor := map[string]bool{}
	for _, e := range except {
		exceptFor[e] = true
	}
	// refs maps each declaration of an internal package to the internal
	// objects it refers to.  roots collects what the walk starts from:
	// the internal objects that the packages outside internal/, the
	// excepted packages and names, and init functions refer to.
	refs := map[types.Object][]types.Object{}
	var roots []types.Object
	// ifaces indexes every interface the programs can see by the names
	// of its methods.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	importedBy := map[string]string{}
	for _, p := range own {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		// refsIn appends to out the internal objects n refers to.
		refsIn := func(out []types.Object, n ast.Node) []types.Object {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && internal(obj.Pkg().Path()) {
						out = append(out, origin(obj))
					}
				}
				return true
			})
			return out
		}
		r := rel(p.ImportPath)
		for _, f := range files {
			if !internal(p.ImportPath) || exceptFor[r] {
				roots = refsIn(roots, f)
				continue
			}
			declarations(f, info, func(obj types.Object, syntax ast.Node) {
				refs[obj] = refsIn(nil, syntax)
				fn, ok := obj.(*types.Func)
				runs := ok && fn.Name() == "init" && fn.Type().(*types.Signature).Recv() == nil
				if runs || exceptFor[r+"."+objectKey(obj)] {
					roots = append(roots, refs[obj]...)
				}
			})
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
		for _, imp := range p.Imports {
			if _, ok := importedBy[imp]; !ok && imp != p.ImportPath {
				importedBy[imp] = rel(p.ImportPath)
			}
		}
	}
	visitPackages(checked, func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
	})

	// Types a qnet package re-exports by alias are public API, methods
	// included.
	public := map[*types.TypeName]bool{}
	for path, pkg := range checked {
		if r := rel(path); r != "qnet" && !strings.HasPrefix(r, "qnet/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					public[named.Obj()] = true
				}
			}
		}
	}

	// Walk from the roots.  A type reached brings the methods a call
	// through an interface can reach, or all its methods when a qnet
	// alias makes it public.
	used := map[string]bool{}
	reached := map[types.Object]bool{}
	var queue []types.Object
	reach := func(obj types.Object) {
		if !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	use := func(obj types.Object) {
		if key := objectKey(obj); key != "" {
			used[rel(obj.Pkg().Path())+"."+key] = true
		}
		reach(obj)
	}
	for _, obj := range roots {
		use(obj)
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range refs[obj] {
			use(u)
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); public[tn] || satisfies(named, m.Name(), ifaces) {
						reach(m)
					}
				}
			}
		}
	}

	declared := map[string]bool{}
	var findings []string
	report := func(pos token.Pos, format string, args ...any) {
		at := fset.Position(pos)
		if r, err := filepath.Rel(root, at.Filename); err == nil {
			at.Filename = r
		}
		findings = append(findings, fmt.Sprintf("%v: ", at)+fmt.Sprintf(format, args...))
	}
	for path, pkg := range checked {
		if !internal(path) {
			continue
		}
		r := rel(path)
		declared[r] = true
		if exceptFor[r] {
			continue
		}
		check := func(obj types.Object, key string) {
			name := r + "." + key
			declared[name] = true
			if used[name] || exceptFor[name] {
				return
			}
			report(obj.Pos(), "exported %s %s has no caller outside tests", kind(obj), name)
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || public[tn] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !satisfies(named, m.Name(), ifaces) {
					check(m, name+"."+m.Name())
				}
			}
		}
	}
	for _, e := range except {
		switch {
		case !declared[e]:
			findings = append(findings, fmt.Sprintf("exception %s names nothing: drop it from the list", e))
		case used[e]:
			findings = append(findings, fmt.Sprintf("exception %s has a caller: drop it from the list", e))
		case importedBy[mainPath+"/"+e] != "":
			findings = append(findings, fmt.Sprintf("exception %s is imported by %s: drop it from the list",
				e, importedBy[mainPath+"/"+e]))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// declarations calls fn for every object a file declares at package
// level, with the syntax of its declaration.  A const spec without a
// type or values repeats the last spec that has them, so that spec is
// its syntax.
func declarations(f *ast.File, info *types.Info, fn func(obj types.Object, syntax ast.Node)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn(info.Defs[d.Name], d)
		case *ast.GenDecl:
			var last ast.Node
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					fn(info.Defs[s.Name], s)
				case *ast.ValueSpec:
					if s.Type != nil || len(s.Values) > 0 {
						last = s
					}
					for _, name := range s.Names {
						fn(info.Defs[name], last)
					}
				}
			}
		}
	}
}

// origin returns the generic function or method an instantiated one
// stands for, and any other object as it is.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// objectKey names a package-level object, or a method as "Type.Method",
// within its package; it returns "" for anything else, such as a local,
// a field or an interface method.
func objectKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return o.Name()
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				return named.Obj().Name() + "." + o.Name()
			}
		}
		return ""
	case *types.TypeName, *types.Const, *types.Var:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Name()
		}
	}
	return ""
}

// satisfies reports whether the named type, or a pointer to it,
// implements an interface that has a method of the given name.
func satisfies(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	for _, it := range ifaces[method] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// kind names an object's declaration kind for a finding.
func kind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	default:
		return "var"
	}
}

// visitPackages calls fn once for every package the checked packages
// import, directly or not, and for the checked packages themselves.
func visitPackages(checked map[string]*types.Package, fn func(*types.Package)) {
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		fn(p)
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range checked {
		visit(p)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// moduleDirs returns root and the directory of every module nested
// under it, root first.  testdata, vendor and hidden directories are
// skipped.
func moduleDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == root {
			return nil
		}
		if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// goList lists the packages of the module in dir and their
// dependencies, dependencies first, with export data for each.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// moduleRoot returns the directory of the main module's go.mod, as the
// go command finds it from the working directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", errors.New("not inside a module")
	}
	return filepath.Dir(gomod), nil
}
