package vet_test

import (
	"testing"

	"acr/internal/vet"
	"acr/internal/vet/vettest"
)

// Each analyzer has a golden fixture package under testdata: seeded
// violations annotated with // want expectations next to clean idioms that
// must stay silent. The fixtures double as executable documentation of
// what each invariant means at the source level.

const fixture = "acr/internal/vet/testdata/"

func TestNoAllocFixture(t *testing.T) {
	vettest.Check(t, vet.NoAllocAnalyzer, fixture+"noalloc")
}

func TestHygieneFixture(t *testing.T) {
	vettest.Check(t, vet.HygieneAnalyzer, fixture+"hygiene")
}
