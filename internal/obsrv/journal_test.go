package obsrv

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// serve sends one GET to the observatory handler without a listener, so a
// panic in a handler fails the test instead of being recovered by
// net/http.
func serve(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.URL.Path = path
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

// TestLoadJournalRejectsMalformedHistogram: a histogram family without
// bounds but with a bucket count used to load and then crash
// GET /runs/{key} in the quantile computation; LoadJournal now rejects it
// with an error naming the line.
func TestLoadJournalRejectsMalformedHistogram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	journal := `{"record":{"key":"ok","status":"done"}}` + "\n" +
		`{"record":{"key":"k","status":"done","metrics":[{"name":"h","kind":"histogram","buckets":[],` +
		`"series":[{"bucket_counts":[3],"count":3}]}]}}` + "\n"
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := NewRegistry(Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = g.LoadJournal(path)
	if err == nil {
		serve(NewServer(g), "/runs/k")
		t.Fatal("LoadJournal accepted a histogram with bucket counts but no bounds")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the offending line: %v", err)
	}
}

// FuzzLoadJournal: LoadJournal never panics on arbitrary journal bytes,
// and every run it loads is served by /runs, /runs/{key} and /metrics
// without a panic. Seeds live in testdata/fuzz/FuzzLoadJournal.
func FuzzLoadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := NewRegistry(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.LoadJournal(path); err != nil {
			return
		}
		s := NewServer(g)
		serve(s, "/runs")
		serve(s, "/metrics")
		for _, rec := range g.Runs() {
			serve(s, "/runs/"+rec.Key)
		}
	})
}
