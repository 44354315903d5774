// Package noalloc is an acrvet fixture for the allocation-free analyzer:
// one function per family of allocating construct, plus the clean
// steady-state shape that must stay silent.
package noalloc

import "fmt"

type rec struct{ a, b int64 }

type table struct {
	slots []rec
	idx   map[int64]int32
	buf   []byte
}

// BadConstructs hits the builtin allocators.
//
//acr:noalloc
func BadConstructs(t *table, n int) {
	s := make([]rec, n) // want "make allocates"
	_ = s
	p := new(rec) // want "new allocates"
	_ = p
	t.slots = append(t.slots, rec{}) // want "append may grow its backing array"
	t.idx[7] = 1                     // want "map insert may grow the table"
}

// BadBoxing converts concrete values to interfaces.
//
//acr:noalloc
func BadBoxing(v int64) {
	var box interface{}
	box = v // want "assignment boxes int64 into interface"
	_ = box
	fmt.Println(v) // want "call to allocating stdlib fmt.Println" "argument boxes int64 into interface"
}

// BadLiterals allocates through composite literals.
//
//acr:noalloc
func BadLiterals() *rec {
	xs := []int{1, 2, 3} // want "slice literal allocates"
	_ = xs
	m := map[int]int{} // want "map literal allocates"
	_ = m
	return &rec{a: 1} // want "&composite-literal allocates"
}

// BadStrings concatenates and converts strings.
//
//acr:noalloc
func BadStrings(a, b string) string {
	s := a + b      // want "string concatenation allocates"
	s += a          // want "string concatenation allocates"
	bs := []byte(a) // want "conversion []byte(string) copies its operand"
	_ = bs
	return s
}

// BadControl allocates through control-flow constructs.
//
//acr:noalloc
func BadControl() {
	f := func() {} // want "closure may escape to the heap"
	f()
	go f()    // want "go statement allocates a goroutine"
	defer f() // want "defer allocates its frame record"
}

// shard mimics one slice of a partitioned memory plane: a dirty-line
// scratch list sealed into each checkpoint.
type shard struct {
	dirty  []int64
	sealed int64
}

// BadShardSeal is the sharded-seal anti-pattern: capturing the shard in a
// fresh closure on every seal. The seal runs once per checkpoint per shard
// — at 256 shards the per-seal closure (and the append into an unsized
// batch) turns the checkpoint path into an allocation storm. The clean
// shape passes the shard by index to a prebound method value and reuses a
// capacity-fixed batch, as GoodShardSeal shows.
//
//acr:noalloc
func BadShardSeal(shards []shard, ck int64) []func() {
	var pending []func()
	for i := range shards {
		s := &shards[i]
		pending = append(pending, func() { // want "append may grow its backing array" "closure may escape to the heap"
			s.sealed = ck
			s.dirty = s.dirty[:0]
		})
	}
	return pending
}

// GoodShardSeal seals every shard in place: no closures, no growth — the
// shape a checkpoint path must keep.
//
//acr:noalloc
func GoodShardSeal(shards []shard, ck int64) {
	for i := range shards {
		shards[i].sealed = ck
		shards[i].dirty = shards[i].dirty[:0]
	}
}

// GoodHot is the steady-state hot-path shape: indexing, arithmetic, field
// writes, justified amortized growth and panic-path formatting.
//
//acr:noalloc
func GoodHot(t *table, i int, v int64) {
	if i >= len(t.slots) {
		panic(fmt.Sprintf("noalloc fixture: index %d out of range", i))
	}
	t.slots[i].a = v
	t.slots[i].b += v
	t.buf = append(t.buf, byte(v)) //acr:alloc-ok amortized growth, steady state reuses capacity
}
