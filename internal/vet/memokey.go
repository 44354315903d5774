package vet

import "go/types"

// MemoKeyAnalyzer mechanizes the memoisation-key completeness rules the
// bench cache depends on (the PR 5 SimWorkers precedent): a configuration
// knob either participates in the memo key, or it is explicitly declared
// outside it — never silently in between, where a new field can split the
// cache (two spellings of one configuration) or poison it (one cell served
// for two genuinely different configurations).
//
// Two annotations drive it:
//
//   - //acr:memo-key on the key struct: every field, recursively, must be
//     a pure value — basic types, arrays and structs of them. A pointer,
//     slice, map, interface, chan or func field compares by reference
//     identity, so semantically equal keys would miss (split) the cache.
//     A configuration struct embedded in the key is walked with it, so
//     every configuration field is keyed.
//   - //acr:memo-cache on the struct owning the cache: every exported
//     field (a driver knob) must be //acr:memo-exempt, the reviewed
//     declaration that the knob provably does not change results.
var MemoKeyAnalyzer = &Analyzer{
	Name: "memokey",
	Doc:  "prove memo-key purity for //acr:memo-key structs and declared knobs on //acr:memo-cache structs",
	Run:  runMemoKey,
}

func runMemoKey(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, tn := range prog.Ann.AnnotatedTypes(prog, "memo-key") {
		diags = append(diags, memoKeyPurity(prog, tn)...)
	}
	for _, tn := range prog.Ann.AnnotatedTypes(prog, "memo-cache") {
		diags = append(diags, memoCacheFields(prog, tn)...)
	}
	return diags
}

// memoKeyPurity flags reference-identity fields anywhere inside a
// //acr:memo-key struct.
func memoKeyPurity(prog *Program, tn *types.TypeName) []Diagnostic {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var diags []Diagnostic
	var walk func(st *types.Struct, path string, at *types.Var)
	seen := make(map[*types.Struct]bool)
	walk = func(st *types.Struct, path string, at *types.Var) {
		if seen[st] {
			return
		}
		seen[st] = true
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			name := path + f.Name()
			pos := f.Pos()
			if at != nil {
				pos = at.Pos() // anchor nested findings at the outer field
			}
			anchor := f
			if at != nil {
				anchor = at
			}
			switch u := f.Type().Underlying().(type) {
			case *types.Basic:
			case *types.Struct:
				walk(u, name+".", anchor)
			case *types.Array:
				if !pureValue(u.Elem()) {
					diags = append(diags, diag(prog, "memokey", pos,
						"memo-key field %s: array element %s compares by reference identity; equal keys would miss the cache", name, u.Elem()))
				}
			default:
				diags = append(diags, diag(prog, "memokey", pos,
					"memo-key field %s has reference type %s: two equal configurations would occupy (or miss) distinct cache cells", name, f.Type()))
			}
		}
	}
	walk(st, tn.Name()+".", nil)
	return diags
}

func pureValue(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Array:
		return pureValue(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !pureValue(u.Field(i).Type()) {
				return false
			}
		}
		return true
	}
	return false
}

// memoCacheFields requires every exported field of a //acr:memo-cache
// struct to be //acr:memo-exempt: exported fields are driver knobs, and a
// knob outside the memo key must be declared (and reviewed) as
// result-invariant.
func memoCacheFields(prog *Program, tn *types.TypeName) []Diagnostic {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var diags []Diagnostic
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue // cache machinery (the map, the lock, reports)
		}
		if !prog.Ann.FieldHas(f, "memo-exempt") {
			diags = append(diags, diag(prog, "memokey", f.Pos(),
				"%s.%s is a knob on the memo-cache owner but outside the memo key: move it into the spec or annotate //acr:memo-exempt with the result-invariance argument",
				tn.Name(), f.Name()))
		}
	}
	return diags
}
