package bench

import (
	"testing"

	"acr/internal/analysis"
	"acr/internal/workloads"
)

// TestAllWorkloadsLintClean is the static-analysis gate: every shipped
// kernel must produce zero lint diagnostics at every shipped class and the
// thread counts the experiments use. A kernel change that introduces an
// uninitialised read, dead store, unreachable block or r0 write runs
// without complaint, so it fails here before it can skew the paper's
// figures.
func TestAllWorkloadsLintClean(t *testing.T) {
	classes := []workloads.Class{workloads.ClassS, workloads.ClassW, workloads.ClassA}
	for _, bench := range workloads.All() {
		for _, class := range classes {
			for _, threads := range []int{4, 8, 16} {
				p, err := bench.Build(threads, class)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", bench.Name, class.Name, threads, err)
				}
				diags, err := analysis.Lint(p)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", bench.Name, class.Name, threads, err)
				}
				for _, d := range diags {
					t.Errorf("%s/%s/%d: %s", bench.Name, class.Name, threads, d)
				}
			}
		}
	}
}
