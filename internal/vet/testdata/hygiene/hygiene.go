// Package hygiene is an acrvet fixture for the annotation-grammar checks:
// unknown names, misplaced directives, duplicates, directive-specific
// target constraints and the spaced-prefix near-miss.
package hygiene

// Unknown carries a directive the registry does not know.
//
// want-next "unknown //acr: directive \"nosuch\""
//
//acr:nosuch
func Unknown() {}

// Misplaced carries a package-only directive on a function.
//
// want-next "//acr:deterministic is meaningless on a function declaration; it belongs on a package clause"
//
//acr:deterministic
func Misplaced() {}

// Duplicated carries the same directive twice.
//
// want-next "duplicate //acr:noalloc"
//
//acr:noalloc
//acr:noalloc
func Duplicated() {}

// BadObserver puts the interface-only directive on a struct.
//
// want-next "//acr:observer on type BadObserver: only interface types take this directive"
//
//acr:observer
type BadObserver struct{ N int }

// BadKey puts a struct-only directive on a named slice.
//
// want-next "//acr:memo-key on type BadKey: only struct types take this directive"
//
//acr:memo-key
type BadKey []int

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
