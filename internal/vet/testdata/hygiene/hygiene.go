// Package hygiene is an acrvet fixture for the annotation-grammar checks:
// unknown names, misplaced directives, duplicates and the spaced-prefix
// near-miss.
package hygiene

// Unknown carries a directive the registry does not know.
//
// want-next "unknown //acr: directive \"nosuch\""
//
//acr:nosuch
func Unknown() {}

// Misplaced carries an end-of-line directive on a function.
//
// want-next "//acr:alloc-ok is meaningless on a function declaration; it belongs at end of line"
//
//acr:alloc-ok
func Misplaced() {}

// Duplicated carries the same directive twice.
//
// want-next "duplicate //acr:noalloc"
//
//acr:noalloc
//acr:noalloc
func Duplicated() {}

// NearMiss demonstrates the dangerous typo: a spaced prefix is an ordinary
// comment and would silently annotate nothing.
func NearMiss() {
	// want-next "is not a directive (write //acr:name with no spaces)"
	// acr:noalloc
	_ = 0
}

// Clean is a correctly annotated function the analyzer must accept.
//
//acr:noalloc
func Clean(x int) int { return x + 1 }
