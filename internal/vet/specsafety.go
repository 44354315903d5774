package vet

import (
	"go/ast"
	"go/types"
)

// SpecSafetyAnalyzer checks the speculative-execution confinement contract
// of the parallel engine: code annotated //acr:spec-safe — the closure
// reachable from cpu.Core.SpecStep and the mem.SpecView methods — runs on
// worker goroutines against core-private state, so it must not write any
// package-level variable and may only call functions that are themselves
// //acr:spec-safe (or allowlisted pure standard library).
//
// Calls through interfaces are resolved to the interface method, so a
// //acr:spec-safe annotation on the interface type (cpu.SpecHooks) vouches
// for every implementation — each implementation carries its own
// annotation and is checked independently. Calls through plain function
// values cannot be resolved statically and are flagged unless the line
// carries //acr:spec-ok with the justification.
//
// The dynamic counterpart of this analyzer is the conflict-oracle fuzz in
// internal/sim: the static pass proves the write/call discipline, the fuzz
// proves bit-identity of the results.
var SpecSafetyAnalyzer = &Analyzer{
	Name: "specsafety",
	Doc:  "confine //acr:spec-safe code to private state and spec-safe callees",
	Run:  runSpecSafety,
}

// specUnsafeStd are stdlib packages whose calls touch process-shared state
// and are never acceptable during a speculative round.
var specUnsafeStd = map[string]bool{
	"os": true, "io": true, "bufio": true, "time": true,
	"math/rand": true, "math/rand/v2": true, "sync": true,
	"sync/atomic": true, "runtime": true,
}

func runSpecSafety(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || !prog.Ann.FuncHas(fn, "spec-safe") {
					continue
				}
				diags = append(diags, specSafeFunc(prog, pkg, fd, fn)...)
			}
		}
	}
	return diags
}

func specSafeFunc(prog *Program, pkg *Package, fd *ast.FuncDecl, fn *types.Func) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		if prog.Ann.LineHas(prog.Fset, n.Pos(), "spec-ok") {
			return
		}
		args = append(args, funcName(fn))
		diags = append(diags, diag(prog, "specsafety", n.Pos(), format+" in //acr:spec-safe %s", args...))
	}

	checkWrite := func(e ast.Expr) {
		id := rootIdent(e)
		if id == nil {
			return
		}
		if obj := useObj(pkg, id); isPkgLevelVar(obj) {
			report(e, "write to package-level %s: speculative code must only touch core-private state", id.Name)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		case *ast.GoStmt:
			report(n, "go statement: speculative code must stay on its worker goroutine")
		case *ast.CallExpr:
			if inPanic(pkg, n) {
				return false
			}
			if builtinName(pkg, n) != "" || isConversion(pkg, n) {
				return true
			}
			callee := calleeFunc(pkg, n)
			if callee == nil {
				if _, isLit := ast.Unparen(n.Fun).(*ast.FuncLit); isLit {
					return true // literal called in place: body checked by this walk
				}
				report(n, "call through a function value cannot be proven spec-safe (annotate the line //acr:spec-ok with the confinement argument)")
				return true
			}
			path := pkgPathOf(callee)
			switch {
			case prog.Ann.FuncHas(callee, "spec-safe"):
			case !prog.Local(path):
				if specUnsafeStd[path] {
					report(n, "call to %s touches process-shared state", funcName(callee))
				}
			default:
				report(n, "call to %s, which is not //acr:spec-safe", funcName(callee))
			}
		}
		return true
	})
	return diags
}
