// Command doccheck enforces the repository's documentation contract:
// every exported identifier in the given package directories must carry
// a doc comment, and every package must have a package-level comment.
// CI runs it over qnet/... so the public API surface — including the
// routing, fault and telemetry layers, which are implemented there —
// cannot silently grow undocumented, and over every internal package
// (the same contract revive's `exported` rule enforces, without the
// external dependency).
//
// It also type-checks the non-test files of the module it runs in and
// of every module nested under it, such as the benchmark, and reports
// each exported identifier under internal/ that no declaration
// reachable from the packages outside internal/ refers to: code only
// tests run, or only other dead code calls, is not shipped.  A method
// that satisfies an interface, or belongs to a type a qnet package
// re-exports by alias, is not a finding, and the exceptions list names
// the few kept on purpose.  Export data comes from `go list -export`,
// so the check needs only the go command and the build cache.
//
// Usage:
//
//	doccheck ./qnet ./qnet/channel ./qnet/route ./qnet/simulate ./qnet/stats
//
// Each argument is a directory containing one package; _test.go files
// are skipped.  Exit status is 1 if any exported identifier is bare or
// uncalled, with one "file:line: ..." diagnostic per finding.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package-dir> [<package-dir> ...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		findings, err := check(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		bad += len(findings)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifier(s)\n", bad)
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	findings, err := uncalled(root, exceptions)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d uncalled exported internal identifier(s)\n", len(findings))
	}
	if bad+len(findings) > 0 {
		os.Exit(1)
	}
}

// check parses one package directory and returns a diagnostic per
// undocumented exported identifier.
func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	report := func(pos token.Pos, what, name string) {
		findings = append(findings, fmt.Sprintf("%s: undocumented exported %s %s",
			fset.Position(pos), what, name))
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, file := range pkg.Files {
			if file.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// Methods count: an exported method on an exported
					// type is API surface.
					if d.Name.IsExported() && d.Doc == nil {
						what := "function"
						if d.Recv != nil {
							what = "method"
						}
						report(d.Pos(), what, d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return findings, nil
}

// checkGenDecl walks a const/var/type declaration.  A doc comment on
// the grouped declaration covers its members (the Go convention for
// const blocks); otherwise each exported spec needs its own.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			documented := groupDoc || s.Doc != nil
			for _, name := range s.Names {
				if name.IsExported() && !documented {
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}
