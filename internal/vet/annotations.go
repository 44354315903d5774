package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //acr: annotation grammar. A directive is a comment of the form
//
//	//acr:name [freeform reason]
//
// written like a compiler directive (no space after //, so gofmt preserves
// it). Placement decides meaning:
//
//	//acr:noalloc            func doc — function body is checked
//	                         allocation-free
//	//acr:alloc-ok           end of line — allocation site inside a noalloc
//	                         function, justified (cold path, amortized
//	                         growth, proven non-escaping)
//
// The hygiene analyzer validates exactly this table: unknown names,
// and misplaced directives are diagnostics.
const directivePrefix = "//acr:"

// Placement describes where a directive may legally appear.
type Placement uint8

// Placement bits.
const (
	OnPackage Placement = 1 << iota
	OnFunc
	OnType
	OnField
	OnLine
)

// directives is the registry of known annotation names and where each may
// appear.
var directives = map[string]Placement{
	"noalloc":  OnFunc,
	"alloc-ok": OnLine,
}

// Annotation is one parsed //acr: directive.
type Annotation struct {
	Name string // directive name ("noalloc")
	Pos  token.Pos
	At   Placement // where it was found (a single bit)
}

// Annotations indexes every directive in a Program by the entity it
// annotates. Package-clause and struct-field directives are only recorded
// in all: no directive belongs there, so hygiene reports each one.
type Annotations struct {
	funcs map[*types.Func][]Annotation
	lines map[string]map[int][]Annotation // filename → line → directives
	all   []placed                        // everything, for the hygiene pass
}

// placed is an Annotation plus its attachment context, kept for hygiene
// validation.
type placed struct {
	Annotation
	pkg *Package
	// target is the annotated object (nil for package and line context).
	target types.Object
}

func parseDirective(c *ast.Comment) (Annotation, bool) {
	rest, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return Annotation{}, false
	}
	name, _, _ := strings.Cut(rest, " ")
	return Annotation{Name: name, Pos: c.Pos()}, true
}

func groupDirectives(g *ast.CommentGroup) []Annotation {
	if g == nil {
		return nil
	}
	var anns []Annotation
	for _, c := range g.List {
		if a, ok := parseDirective(c); ok {
			anns = append(anns, a)
		}
	}
	return anns
}

// FuncHas reports whether fn's declaration (or, for an interface method,
// its declaration in the interface) carries name.
func (x *Annotations) FuncHas(fn *types.Func, name string) bool {
	for _, a := range x.funcs[fn] {
		if a.Name == name {
			return true
		}
	}
	return false
}

// LineHas reports whether the source line holding pos carries an
// end-of-line directive name.
func (x *Annotations) LineHas(fset *token.FileSet, pos token.Pos, name string) bool {
	p := fset.Position(pos)
	for _, a := range x.lines[p.Filename][p.Line] {
		if a.Name == name {
			return true
		}
	}
	return false
}

// indexAnnotations walks every file of prog once, classifying each //acr:
// directive by its syntactic attachment.
func indexAnnotations(prog *Program) *Annotations {
	x := &Annotations{
		funcs: make(map[*types.Func][]Annotation),
		lines: make(map[string]map[int][]Annotation),
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			claimed := make(map[*ast.CommentGroup]bool)
			x.indexFile(pkg, f, claimed)
			// Every directive not claimed by a declaration is a line
			// directive for its own source line.
			for _, g := range f.Comments {
				if claimed[g] {
					continue
				}
				for _, a := range groupDirectives(g) {
					a.At = OnLine
					p := prog.Fset.Position(a.Pos)
					if x.lines[p.Filename] == nil {
						x.lines[p.Filename] = make(map[int][]Annotation)
					}
					x.lines[p.Filename][p.Line] = append(x.lines[p.Filename][p.Line], a)
					x.all = append(x.all, placed{Annotation: a, pkg: pkg})
				}
			}
		}
	}
	return x
}

func (x *Annotations) indexFile(pkg *Package, f *ast.File, claimed map[*ast.CommentGroup]bool) {
	claim := func(g *ast.CommentGroup, at Placement, target types.Object) []Annotation {
		if g == nil {
			return nil
		}
		claimed[g] = true
		anns := groupDirectives(g)
		for i := range anns {
			anns[i].At = at
			x.all = append(x.all, placed{Annotation: anns[i], pkg: pkg, target: target})
		}
		return anns
	}

	claim(f.Doc, OnPackage, nil)

	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
			var target types.Object
			if fn != nil {
				target = fn
			}
			anns := claim(d.Doc, OnFunc, target)
			if fn != nil {
				x.funcs[fn] = append(x.funcs[fn], anns...)
			}
		case *ast.GenDecl:
			declAnns := groupDirectives(d.Doc)
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
				var target types.Object
				if tn != nil {
					target = tn
				}
				claim(ts.Doc, OnType, target)
				claim(ts.Comment, OnType, target)
				// A doc on the GenDecl itself annotates a sole TypeSpec
				// (the common `// doc` + `type T struct` shape).
				if len(d.Specs) == 1 && len(declAnns) > 0 {
					claim(d.Doc, OnType, target)
				}
				if tn != nil {
					x.indexTypeSpec(pkg, ts, claim)
				}
			}
		}
	}
}

func (x *Annotations) indexTypeSpec(pkg *Package, ts *ast.TypeSpec, claim func(*ast.CommentGroup, Placement, types.Object) []Annotation) {
	switch t := ts.Type.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			claim(field.Doc, OnField, nil)
			claim(field.Comment, OnField, nil)
		}
	case *ast.InterfaceType:
		// A directive on an interface method attaches to the method object:
		// calls through the interface resolve to it, so annotating the
		// contract covers every call site (each implementation still carries
		// and is checked under its own annotation).
		for _, field := range t.Methods.List {
			for _, id := range field.Names {
				fn, ok := pkg.Info.Defs[id].(*types.Func)
				if !ok {
					continue
				}
				anns := claim(field.Doc, OnFunc, fn)
				anns = append(anns, claim(field.Comment, OnFunc, fn)...)
				x.funcs[fn] = append(x.funcs[fn], anns...)
			}
		}
	}
}
