package vet

import (
	"go/types"
	"sort"
	"strings"
)

// HygieneAnalyzer validates the //acr: annotation grammar itself, so the
// rest of the suite can trust what it reads: unknown directive names,
// directives in positions where they have no meaning, duplicates on one
// target, and near-miss spellings ("// acr:"
// with a space is an ordinary comment and silently does nothing — the most
// dangerous typo an invariant annotation can have).
var HygieneAnalyzer = &Analyzer{
	Name: "annotations",
	Doc:  "validate the //acr: directive grammar",
	Run:  runHygiene,
}

func runHygiene(prog *Program) []Diagnostic {
	var diags []Diagnostic

	type targetKey struct {
		target types.Object
		pkg    string
		at     Placement
		name   string
		line   int
	}
	seen := make(map[targetKey]bool)
	for _, p := range prog.Ann.all {
		where, known := directives[p.Name]
		if p.Name == "" || !known {
			diags = append(diags, diag(prog, "annotations", p.Pos,
				"unknown //acr: directive %q (known: %s)", p.Name, knownDirectives()))
			continue
		}
		if p.At&where == 0 {
			diags = append(diags, diag(prog, "annotations", p.Pos,
				"//acr:%s is meaningless %s; it belongs %s", p.Name, placementName(p.At), placementList(where)))
			continue
		}
		key := targetKey{target: p.target, pkg: p.pkg.Path, at: p.At, name: p.Name}
		if p.At == OnLine {
			key.line = prog.Fset.Position(p.Pos).Line
		}
		// Field and unresolved attachments carry a nil target; only dedup
		// contexts where the key actually identifies one entity.
		if p.target != nil || p.At == OnPackage || p.At == OnLine {
			if seen[key] {
				diags = append(diags, diag(prog, "annotations", p.Pos,
					"duplicate //acr:%s", p.Name))
			}
			seen[key] = true
		}
	}

	// Near-miss spellings anywhere in the sources.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, g := range f.Comments {
				for _, c := range g.List {
					text := c.Text
					if strings.HasPrefix(text, "// acr:") || strings.HasPrefix(text, "//acr :") {
						diags = append(diags, diag(prog, "annotations", c.Pos(),
							"%q is not a directive (write //acr:name with no spaces)", firstLine(text)))
					}
				}
			}
		}
	}
	return diags
}

func knownDirectives() string {
	names := make([]string, 0, len(directives))
	for n := range directives {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func placementName(at Placement) string {
	switch at {
	case OnPackage:
		return "on a package clause"
	case OnFunc:
		return "on a function declaration"
	case OnType:
		return "on a type declaration"
	case OnField:
		return "on a struct field"
	case OnLine:
		return "at end of line"
	}
	return "here"
}

func placementList(where Placement) string {
	var parts []string
	for _, at := range []Placement{OnPackage, OnFunc, OnType, OnField, OnLine} {
		if where&at != 0 {
			parts = append(parts, placementName(at))
		}
	}
	return strings.Join(parts, " or ")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
