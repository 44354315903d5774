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
//	//acr:deterministic      package clause doc — package joins the
//	                         determinism analyzer's scope
//	//acr:noalloc            func doc — function body is checked
//	                         allocation-free
//	//acr:spec-safe          func doc or interface type doc — function (or
//	                         every method of the interface) may run during a
//	                         speculative round
//	//acr:observer           interface type doc — implementations' interface
//	                         methods are checked side-effect-free
//	//acr:memo-key           struct type doc — struct must be a pure value
//	                         (deep comparability, no reference identity)
//	//acr:memo-cache         struct type doc — exported fields must be
//	                         //acr:memo-exempt
//	//acr:memo-exempt        struct field — field deliberately does not
//	                         contribute to the memoisation key
//	//acr:wallclock-ok       func doc or end of line — intentional wall-clock
//	                         use inside a deterministic package
//	//acr:maporder-ok        func doc or end of line — map-range order proven
//	                         not to reach any output
//	//acr:alloc-ok           end of line — allocation site inside a noalloc
//	                         function, justified (cold path, amortized
//	                         growth, proven non-escaping)
//	//acr:spec-ok            end of line — unresolvable call inside a
//	                         spec-safe function, justified
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
	"deterministic": OnPackage,
	"noalloc":       OnFunc,
	"spec-safe":     OnFunc | OnType,
	"observer":      OnType,
	"memo-key":      OnType,
	"memo-cache":    OnType,
	"memo-exempt":   OnField,
	"wallclock-ok":  OnFunc | OnLine,
	"maporder-ok":   OnFunc | OnLine,
	"alloc-ok":      OnLine,
	"spec-ok":       OnLine,
}

// Annotation is one parsed //acr: directive.
type Annotation struct {
	Name string // directive name ("noalloc")
	Pos  token.Pos
	At   Placement // where it was found (a single bit)
}

// Annotations indexes every directive in a Program by the entity it
// annotates.
type Annotations struct {
	pkgs   map[string][]Annotation // package path → package-clause directives
	funcs  map[*types.Func][]Annotation
	types_ map[*types.TypeName][]Annotation
	fields map[*types.Var][]Annotation
	lines  map[string]map[int][]Annotation // filename → line → directives
	all    []placed                        // everything, for the hygiene pass
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

// PackageHas reports whether the package clause of pkgPath carries name.
func (x *Annotations) PackageHas(pkgPath, name string) bool {
	for _, a := range x.pkgs[pkgPath] {
		if a.Name == name {
			return true
		}
	}
	return false
}

// FuncHas reports whether fn's declaration carries name (directly, or via a
// spec-safe interface whose method set fn belongs to — see indexing).
func (x *Annotations) FuncHas(fn *types.Func, name string) bool {
	for _, a := range x.funcs[fn] {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Func returns fn's directives.
func (x *Annotations) Func(fn *types.Func) []Annotation { return x.funcs[fn] }

// TypeAnn returns the first directive named name on tn, if any.
func (x *Annotations) TypeAnn(tn *types.TypeName, name string) (Annotation, bool) {
	for _, a := range x.types_[tn] {
		if a.Name == name {
			return a, true
		}
	}
	return Annotation{}, false
}

// FieldHas reports whether struct field v carries name.
func (x *Annotations) FieldHas(v *types.Var, name string) bool {
	for _, a := range x.fields[v] {
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
		pkgs:   make(map[string][]Annotation),
		funcs:  make(map[*types.Func][]Annotation),
		types_: make(map[*types.TypeName][]Annotation),
		fields: make(map[*types.Var][]Annotation),
		lines:  make(map[string]map[int][]Annotation),
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			claimed := make(map[*ast.CommentGroup]bool)
			x.indexFile(prog, pkg, f, claimed)
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

func (x *Annotations) indexFile(prog *Program, pkg *Package, f *ast.File, claimed map[*ast.CommentGroup]bool) {
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

	x.pkgs[pkg.Path] = append(x.pkgs[pkg.Path], claim(f.Doc, OnPackage, nil)...)

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
				anns := claim(ts.Doc, OnType, target)
				anns = append(anns, claim(ts.Comment, OnType, target)...)
				// A doc on the GenDecl itself annotates a sole TypeSpec
				// (the common `// doc` + `type T struct` shape).
				if len(d.Specs) == 1 && len(declAnns) > 0 {
					anns = append(anns, claim(d.Doc, OnType, target)...)
				}
				if tn == nil {
					continue
				}
				x.types_[tn] = append(x.types_[tn], anns...)
				x.indexTypeSpec(prog, pkg, ts, tn, claim)
			}
		}
	}
}

func (x *Annotations) indexTypeSpec(prog *Program, pkg *Package, ts *ast.TypeSpec, tn *types.TypeName, claim func(*ast.CommentGroup, Placement, types.Object) []Annotation) {
	switch t := ts.Type.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			anns := claim(field.Doc, OnField, nil)
			anns = append(anns, claim(field.Comment, OnField, nil)...)
			if len(anns) == 0 {
				continue
			}
			idents := field.Names
			if len(idents) == 0 {
				// Embedded field: resolve the implicit name's object from
				// the struct type instead of the syntax.
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i).Embedded() && st.Field(i).Pos() == field.Type.Pos() {
							x.fields[st.Field(i)] = append(x.fields[st.Field(i)], anns...)
						}
					}
				}
				continue
			}
			for _, id := range idents {
				if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
					x.fields[v] = append(x.fields[v], anns...)
				}
			}
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
		// A spec-safe interface marks each of its methods spec-safe: calls
		// through the interface are the engine's controlled injection
		// points, and every implementation is annotated (and so checked)
		// on its own.
		if _, ok := x.TypeAnn(tn, "spec-safe"); !ok {
			break
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			ann := Annotation{Name: "spec-safe", Pos: ts.Pos(), At: OnFunc}
			for i := 0; i < iface.NumMethods(); i++ {
				x.funcs[iface.Method(i)] = append(x.funcs[iface.Method(i)], ann)
			}
		}
	}
}

// AnnotatedTypes returns every type annotated with name, in deterministic
// (package, position) order.
func (x *Annotations) AnnotatedTypes(prog *Program, name string) []*types.TypeName {
	var out []*types.TypeName
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if _, ok := x.TypeAnn(tn, name); ok {
				out = append(out, tn)
			}
		}
	}
	return out
}
