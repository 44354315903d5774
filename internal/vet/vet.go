// Package vet is the repository's Go-level invariant suite: a custom static
// analyzer for the property no runtime test pins down — allocation-free hot
// paths (TestBenchAllocBudget bounds only the total allocation rate of a
// run). Determinism, observer one-wayness and memo-key completeness are
// checked dynamically instead: by the sim bit-identity oracles, the
// telemetry on/off identity tests and the reflective memo-key tests in
// bench.
//
// The suite is annotation-driven: source opts into each invariant with
// //acr: directives (see annotations.go for the grammar), and the analyzers
// check every opted-in entity across the whole program. cmd/acrvet is the
// multichecker CLI; the hygiene analyzer validates the annotation grammar
// itself.
//
// The implementation is deliberately standard-library only (go/parser +
// go/types with the compiler source importer): the repository has no
// third-party dependencies, and its static tooling keeps it that way.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run receives the whole Program:
// several invariants (call closures, interface implementations) are
// cross-package by nature.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Diagnostic
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoAllocAnalyzer,
		HygieneAnalyzer,
	}
}

// Run executes the analyzers over prog and returns the findings sorted by
// position then analyzer name.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(prog)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// diag builds a Diagnostic anchored at pos.
func diag(prog *Program, name string, pos token.Pos, format string, args ...any) Diagnostic {
	p := prog.Fset.Position(pos)
	return Diagnostic{
		Analyzer: name,
		File:     p.Filename,
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// pkgPathOf returns the package path an object was declared in, or "" for
// builtins and universe objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// rootIdent unwraps an lvalue expression (selectors, indexing, derefs,
// parens) to its base identifier: the object that owns the written memory,
// as far as syntax can tell. Returns nil when the base is not an identifier
// (e.g. a call result or composite literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// useObj resolves an identifier to its object through uses then defs.
func useObj(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions and calls through function values.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := useObj(pkg, fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: fmt.Sprintf.
		if fn, ok := useObj(pkg, fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isConversion reports whether call is a type conversion rather than a
// function call.
func isConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pkg *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := useObj(pkg, id).(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// funcName renders fn for diagnostics: pkg.Name or (pkg.Recv).Name.
func funcName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// isPkgLevelVar reports whether obj is a package-level variable.
func isPkgLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// Local reports whether path belongs to the analyzed module (as opposed to
// the standard library).
func (p *Program) Local(path string) bool {
	return path == p.Module || strings.HasPrefix(path, p.Module+"/")
}
