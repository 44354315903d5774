// Package memokey is an acrvet fixture for memo-key completeness: a key
// struct with reference-identity fields and a cache owner with an
// undeclared knob.
package memokey

// Key is the memo key: it must be a pure value, deeply comparable with no
// reference identity.
//
//acr:memo-key
type Key struct {
	Name    string
	Params  [4]int64
	Workers int
	Seed    int64
	Nested  inner    // want "memo-key field Key.Nested.ptr has reference type *int64"
	Tags    []string // want "memo-key field Key.Tags has reference type []string"
}

type inner struct {
	scale float64
	ptr   *int64
}

// Cache owns the memo table; exported fields are driver knobs and must be
// declared result-invariant.
//
//acr:memo-cache
type Cache struct {
	//acr:memo-exempt pool width never changes results, only wall-clock
	Workers int
	Retries int // want "Cache.Retries is a knob on the memo-cache owner but outside the memo key"
	table   map[string]int
}

// Lookup keeps the unexported machinery referenced.
func (c *Cache) Lookup(key string) (int, bool) {
	v, ok := c.table[key]
	return v, ok
}
